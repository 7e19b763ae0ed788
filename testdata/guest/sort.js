// Sorting and searching arrays: the default sort orders by string, a
// comparator sorts numbers and sorts stably, flat joins one level, and
// some, every and find stop at their answer.
// want: {"ok":true,"result":{"byString":"10,80,9","byNumber":"9,10,80","stable":"2,4,1,3","flat":"1,2,3,4","some":true,"every":false,"find":4,"kept":"1"},"seq":1}
// want: {"ok":true,"result":{"byString":"10,80,9","byNumber":"9,10,80","stable":"2,4,1,3","flat":"1,2,3,4","some":true,"every":false,"find":4,"kept":"1,2"},"seq":2}
// want: {"ok": false, "error": "comparator refused 3"}
var kept = [];
function main(args) {
	kept.push(args.n);
	kept.sort(function (a, b) { return a - b; });
	var items = [{k: "b", i: 1}, {k: "a", i: 2}, {k: "b", i: 3}, {k: "a", i: 4}];
	items.sort(function (x, y) { return x.k < y.k ? -1 : (x.k > y.k ? 1 : 0); });
	if (args.n === 3) {
		[2, 1].sort(function () { throw "comparator refused " + args.n; });
	}
	return {
		byString: [10, 9, 80].sort().join(","),
		byNumber: [10, 9, 80].sort(function (a, b) { return a - b; }).join(","),
		stable: items.map(function (e) { return e.i; }).join(","),
		flat: [[1, 2], [3], 4].flat().join(","),
		some: [1, 5].some(function (x) { return x > 2; }),
		every: [1, 5].every(function (x) { return x > 2; }),
		find: [1, 4, 6].find(function (x) { return x % 2 === 0; }),
		kept: kept.join(",")
	};
}
