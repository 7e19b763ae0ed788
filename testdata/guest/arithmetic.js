// Expressions: arithmetic, unary, bitwise, compound assignment and
// update operators. The running total is a global, so each invocation
// starts where the last one ended; the third passes the limit.
// want: {"ok":true,"result":{"total":11,"neg":-11,"not":false,"mod":4,"div":2.75,"bits":15,"shr":5,"post":1,"pre":3,"back":3,"plus":1,"compound":2},"seq":1}
// want: {"ok":true,"result":{"total":33,"neg":-33,"not":false,"mod":5,"div":8.25,"bits":41,"shr":16,"post":2,"pre":4,"back":4,"plus":2,"compound":1},"seq":2}
// want: {"ok": false, "error": "total 66 passed 60"}
var total = 0;
function main(args) {
	var n = args.n;
	total += n * 10 - -n;
	if (total > 60) {
		throw "total " + total + " passed 60";
	}
	var m = total;
	m -= 1;
	m *= 2;
	m /= 4;
	m %= 3;
	return {
		total: total,
		neg: -total,
		not: !total,
		mod: total % 7,
		div: total / 4,
		bits: (total | 1) ^ (n << 2) & ~0,
		shr: total >> 1,
		post: n++,
		pre: ++n,
		back: n--,
		plus: +"1" + n - 2,
		compound: m
	};
}
