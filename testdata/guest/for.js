// C-style for loops: init, test and update clauses, nested loops, a
// decreasing step and a loop with every clause empty.
// want: {"ok":true,"result":{"sum":6,"grid":"00 10 ","down":"10,6,2","spins":1},"seq":1}
// want: {"ok":true,"result":{"sum":21,"grid":"00 01 10 11 ","down":"10,6,2","spins":2},"seq":2}
// want: {"ok": false, "error": "run 3: sum 45"}
var runs = 0;
function main(args) {
	runs++;
	var sum = 0;
	for (var i = 1; i <= args.n * 3; i++) {
		sum += i;
	}
	if (runs === 3) {
		throw "run " + runs + ": sum " + sum;
	}
	var grid = "";
	for (var r = 0; r < 2; r++) {
		for (var c = 0; c < args.n; c++) {
			grid += r + "" + c + " ";
		}
	}
	var down = [];
	for (var d = 10; d > 0; d -= 4) down.push(d);
	var spins = 0;
	for (;;) {
		spins++;
		if (spins >= runs) break;
	}
	return {sum: sum, grid: grid, down: down.join(","), spins: spins};
}
