// Closures: each counter a factory makes keeps its own count across
// invocations, a throw does not undo the calls made before it, and an
// immediately called function expression sees its arguments.
// want: {"ok":true,"result":[1,10,1,7],"seq":1}
// want: {"ok": false, "error": "closure call 2"}
// want: {"ok":true,"result":[3,30,3,21],"seq":3}
function counter(step) {
	var c = 0;
	return function () {
		c += step;
		return c;
	};
}
var byOne = counter(1);
var byTen = counter(10);
var calls = 0;
function seen() {
	return calls;
}
function main(args) {
	calls++;
	var a = byOne();
	var b = byTen();
	if (calls === 2) {
		throw "closure call " + calls;
	}
	return [a, b, seen(), (function (x) { return x * args.n; })(7)];
}
