// while loops: a loop whose test fails at once, a countdown, and a loop
// that runs until a global reaches a bound.
// want: {"ok":true,"result":{"never":0,"countdown":"3,2,1","level":2},"seq":1}
// want: {"ok":true,"result":{"never":0,"countdown":"3,2,1","level":4},"seq":2}
// want: {"ok": false, "error": "level 6 reached"}
var level = 0;
function main(args) {
	var never = 0;
	while (false) {
		never++;
	}
	var n = 3;
	var countdown = [];
	while (n > 0) countdown.push(n--);
	var target = args.n * 2;
	while (level < target) {
		level++;
	}
	if (level >= 6) {
		throw "level " + level + " reached";
	}
	return {never: never, countdown: countdown.join(","), level: level};
}
