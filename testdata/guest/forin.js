// for-in over an object's keys (in insertion order) and an array's
// indices, for-of over an array's values and a string's characters.
// Keys added by one invocation are iterated by the next.
// want: {"ok":true,"result":{"keys":"b,a,k1","indices":"0,1,2","sum":7,"chars":"x-y-"},"seq":1}
// want: {"ok":true,"result":{"keys":"b,a,k1,k2","indices":"0,1,2","sum":9,"chars":"x-y-"},"seq":2}
// want: {"ok": false, "error": "for-of over non-iterable"}
var seen = {b: 1, a: 2};
function main(args) {
	seen["k" + args.n] = args.n;
	var keys = [];
	for (var k in seen) {
		keys.push(k);
	}
	var indices = [];
	for (var i in [7, 8, 9]) indices.push(i);
	var sum = 0;
	for (var v of [seen.a, seen.b]) {
		sum += v;
	}
	for (var key in seen) {
		sum += seen[key];
	}
	var chars = "";
	for (var ch of "xy") chars += ch + "-";
	if (args.n === 3) {
		for (var bad of seen) {
		}
	}
	return {keys: keys.join(","), indices: indices.join(","), sum: sum, chars: chars};
}
