// Objects: literals with identifier and string keys, member and
// indexed reads and writes with computed keys, nested objects, key
// order, Object.keys/values/assign, and a read through undefined.
// want: {"ok":true,"result":{"visits":1,"last":"n1","keys":"name,a key,visits,n1","values":"box,spaced,1,1","merged":{"a":1,"c":1,"b":2},"deep":2},"seq":1}
// want: {"ok":true,"result":{"visits":2,"last":"n2","keys":"name,a key,visits,n1,n2","values":"box,spaced,2,1,2","merged":{"a":1,"c":2,"b":2},"deep":3},"seq":2}
// want: {"ok": false, "error": "cannot read property \"depth\" of undefined"}
var store = {name: "box", "a key": "spaced", visits: 0};
var tree = {child: {depth: 1}};
function main(args) {
	store.visits = store.visits + 1;
	var key = "n" + args.n;
	store[key] = args.n;
	tree.child["depth"] += 1;
	var merged = Object.assign({a: 1, c: 0}, {b: 2}, {c: args.n});
	if (args.n === 3) {
		return tree.missing.depth;
	}
	return {
		visits: store["visits"],
		last: key,
		keys: Object.keys(store).join(","),
		values: Object.values(store).join(","),
		merged: merged,
		deep: tree.child.depth
	};
}
