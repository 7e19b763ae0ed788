// Strings: concatenation with numbers, length, indexing, slice and
// substring, case, trim, split and join, repeat, replace and replaceAll,
// indexOf, startsWith/endsWith, charAt/charCodeAt, and a call of a
// method strings do not have.
// want: {"ok":true,"result":{"joined":"a1","len":2,"first":"a","mid":"el","sub":"ll","upper":"HELLO","trimmed":"pad","parts":"x|y|z","rep":"abab","once":"a+b-c","all":"a+b+c","at":2,"edges":"true,true","code":"e,101"},"seq":1}
// want: {"ok":true,"result":{"joined":"a1a2","len":4,"first":"a","mid":"el","sub":"ll","upper":"HELLO","trimmed":"pad","parts":"x|y|z","rep":"abababab","once":"a+b-c","all":"a+b+c","at":2,"edges":"true,true","code":"e,101"},"seq":2}
// want: {"ok": false, "error": "undefined is not a function"}
var joined = "";
function main(args) {
	joined = joined + "a" + args.n;
	var word = "hello";
	if (args.n === 3) {
		return word.shout();
	}
	return {
		joined: joined,
		len: joined.length,
		first: joined[0],
		mid: word.slice(1, 3),
		sub: word.substring(2, 4),
		upper: word.toUpperCase(),
		trimmed: "  pad ".trim(),
		parts: "x,y,z".split(",").join("|"),
		rep: "ab".repeat(args.n * 2),
		once: "a-b-c".replace("-", "+"),
		all: "a-b-c".replaceAll("-", "+"),
		at: word.indexOf("l"),
		edges: word.startsWith("he") + "," + word.endsWith("lo"),
		code: word.charAt(1) + "," + word.charCodeAt(1)
	};
}
