// Math.random, under the entropy contract: each UC draws its own
// stream, so the test masks every value under a "random" key and checks
// that two UCs deployed from one snapshot drew different ones. The
// draws a UC keeps in a global array are its own.
// want: {"ok":true,"result":{"random":"*","inRange":true,"kept":1},"seq":1}
// want: {"ok":true,"result":{"random":"*","inRange":true,"kept":2},"seq":2}
// want: {"ok": false, "error": "kept 3 draws"}
var draws = [];
function main(args) {
	var r = Math.random();
	draws.push(r);
	if (draws.length === 3) {
		throw "kept " + draws.length + " draws";
	}
	return {random: r, inRange: r >= 0 && r < 1, kept: draws.length};
}
