// Arrays: literals, indexed reads and writes, holes and length, push,
// pop, shift, indexOf, includes, slice, concat, reverse, join, map,
// filter, reduce, forEach, and an index past a null.
// want: {"ok":true,"result":{"log":"1","length":1,"squares":"1","evens":"","total":1,"sliced":"","both":"1,0","back":"1","has":true,"at":0,"hole":5,"popped":9,"shifted":8,"each":1},"seq":1}
// want: {"ok":true,"result":{"log":"1,2","length":2,"squares":"1,4","evens":"2","total":3,"sliced":"2","both":"1,2,0","back":"2,1","has":true,"at":1,"hole":5,"popped":9,"shifted":8,"each":3},"seq":2}
// want: {"ok": false, "error": "cannot index null"}
var log = [];
function main(args) {
	log.push(args.n);
	var grid = [0, 0];
	grid[1] = args.n;
	grid[grid[1] - args.n] = 7;
	var holes = [];
	holes[4] = "x";
	var trimmed = [8, 9, 10];
	trimmed.length = 2;
	var each = 0;
	log.forEach(function (v) { each += v; });
	if (args.n === 3) {
		var nothing = null;
		return nothing[0];
	}
	return {
		log: log.join(","),
		length: log.length,
		squares: log.map(function (v) { return v * v; }).join(","),
		evens: log.filter(function (v) { return v % 2 === 0; }).join(","),
		total: log.reduce(function (a, b) { return a + b; }, 0),
		sliced: log.slice(1).join(","),
		both: log.concat([0]).join(","),
		back: log.slice(0).reverse().join(","),
		has: log.includes(args.n),
		at: log.indexOf(args.n),
		hole: holes.length,
		popped: trimmed.concat([9]).pop(),
		shifted: trimmed.shift(),
		each: each
	};
}
