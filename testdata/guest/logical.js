// The ternary and the logical operators: && and || return an operand,
// not a boolean, and short-circuit, so a side effect on the right runs
// only when the left does not decide.
// want: {"ok":true,"result":{"pick":"odd","and":0,"or":"fallback","chain":"last","effects":1,"not":true},"seq":1}
// want: {"ok":true,"result":{"pick":"even","and":0,"or":"fallback","chain":"last","effects":1,"not":true},"seq":2}
// want: {"ok": false, "error": "effects 2"}
var effects = 0;
function bump() {
	effects++;
	return effects;
}
function main(args) {
	var pick = args.n % 2 ? "odd" : args.n > 10 ? "big" : "even";
	var and = 0 && bump();
	var or = "" || null || "fallback";
	var chain = 1 && "x" && "last";
	var skipped = true || bump();
	var ran = args.n === 3 && bump();
	if (ran) {
		throw "effects " + effects;
	}
	var once = false || (args.n === 1 && bump());
	return {pick: pick, and: and, or: or, chain: chain, effects: effects, not: !and};
}
