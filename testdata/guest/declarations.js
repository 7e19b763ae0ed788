// Declarations: var, let and const at the top level, function
// declarations and function expressions, a block's own scope, and a
// local that shadows a global.
// want: {"ok":true,"result":{"outer":"hi n1","inner":"shadowed2","loud":"HI X","count":1},"seq":1}
// want: {"ok":true,"result":{"outer":"hi n2","inner":"shadowed4","loud":"HI X","count":2},"seq":2}
// want: {"ok": false, "error": "count 3 over limit 2"}
var greeting = "hi";
let count = 0;
const limit = 2;
function greet(name) {
	return greeting + " " + name;
}
var shout = function (s) {
	return s.toUpperCase();
};
function main(args) {
	count = count + 1;
	if (count > limit) {
		throw "count " + count + " over limit " + limit;
	}
	var greeting = "shadowed";
	{
		let inner = count * 2;
		greeting = greeting + inner;
	}
	return {outer: greet("n" + args.n), inner: greeting, loud: shout(greet("x")), count: count};
}
