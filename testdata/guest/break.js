// break and continue in for, for-of, for-in and while loops, including
// an inner loop's break that leaves the outer loop running.
// want: {"ok":true,"result":{"odds":"1,3,5","firstBig":4,"pairs":"0-0,1-0,2-0","keys":"a","spins":1},"seq":1}
// want: {"ok":true,"result":{"odds":"1,3,5","firstBig":4,"pairs":"0-0,1-0,2-0","keys":"a","spins":2},"seq":2}
// want: {"ok": false, "error": "stopped after 3"}
var spins = 0;
function main(args) {
	var odds = [];
	for (var i = 0; i < 100; i++) {
		if (i % 2 === 0) continue;
		if (i > 5) break;
		odds.push(i);
	}
	var firstBig = -1;
	for (var v of [1, 2, 4, 8]) {
		if (v < 3) {
			continue;
		}
		firstBig = v;
		break;
	}
	var pairs = [];
	for (var a = 0; a < 3; a++) {
		for (var b = 0; b < 3; b++) {
			if (b > 0) break;
			pairs.push(a + "-" + b);
		}
	}
	var keys = [];
	for (var k in {a: 1, skip: 2, b: 3}) {
		if (k === "skip") break;
		keys.push(k);
	}
	while (true) {
		spins++;
		if (spins % args.n === 0) break;
	}
	if (spins >= 3) {
		throw "stopped after " + spins;
	}
	return {odds: odds.join(","), firstBig: firstBig, pairs: pairs.join(","), keys: keys.join(","), spins: spins};
}
