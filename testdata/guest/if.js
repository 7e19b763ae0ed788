// if / else if / else, with and without braces. Each invocation
// classifies one number into a global history; the third finds it full.
// want: {"ok":true,"result":{"class":"negative","history":"negative"},"seq":1}
// want: {"ok":true,"result":{"class":"zero","history":"negative,zero"},"seq":2}
// want: {"ok": false, "error": "history full: negative,zero,odd"}
var history = [];
function classify(n) {
	if (n < 0) return "negative";
	else if (n === 0) {
		return "zero";
	} else if (n % 2) {
		return "odd";
	} else return "even";
}
function main(args) {
	var c = classify(args.n - 2);
	history.push(c);
	if (history.length > 2) {
		throw "history full: " + history.join(",");
	} else {
		return {class: c, history: history.join(",")};
	}
}
