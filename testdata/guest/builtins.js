// The global builtins: Math, Number, String, parseInt, parseFloat,
// isNaN, Array.isArray, and new, which MiniJS treats as a call; a
// property a function sets on Math stays on it, in this UC alone.
// want: {"ok":true,"result":{"floor":1,"max":9,"min":-1,"abs":3,"pow":8,"round":3,"sqrt":4,"num":42,"str":"7","int":12,"float":1.5,"nan":true,"isArray":true,"made":"made 1","memo":1},"seq":1}
// want: {"ok":true,"result":{"floor":2,"max":9,"min":-1,"abs":3,"pow":8,"round":3,"sqrt":4,"num":42,"str":"7","int":12,"float":1.5,"nan":true,"isArray":true,"made":"made 2","memo":2},"seq":2}
// want: {"ok": false, "error": "memo 3"}
function Made(n) {
	return "made " + n;
}
function main(args) {
	Math.memo = (Math.memo || 0) + 1;
	if (Math.memo === 3) {
		throw "memo " + Math.memo;
	}
	return {
		floor: Math.floor(args.n + 0.9),
		max: Math.max(3, 9, -1),
		min: Math.min(3, 9, -1),
		abs: Math.abs(-3),
		pow: Math.pow(2, 3),
		round: Math.round(2.5),
		sqrt: Math.sqrt(16),
		num: Number("42"),
		str: String(7),
		int: parseInt("12"),
		float: parseFloat("1.5"),
		nan: isNaN("x"),
		isArray: Array.isArray([]),
		made: new Made(args.n),
		memo: Math.memo
	};
}
