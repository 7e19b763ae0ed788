// typeof on every kind of value, an undeclared name included, and a
// call of something that is not a function.
// want: {"ok":true,"result":"number,string,boolean,undefined,object,object,object,function,function,undefined,undefined","seq":1}
// want: {"ok":true,"result":"number,string,boolean,undefined,object,object,object,function,function,undefined,number","seq":2}
// want: {"ok": false, "error": "3 is not a function"}
var later;
function main(args) {
	var kinds = [1, "s", true, undefined, null, {}, [], main, Math.floor];
	var out = [];
	for (var k of kinds) {
		out.push(typeof k);
	}
	out.push(typeof neverDeclared);
	out.push(typeof later);
	later = args.n;
	if (args.n === 3) {
		return later();
	}
	return out.join(",");
}
