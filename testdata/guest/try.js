// try/catch and throw: a caught string, a caught object, a caught
// runtime error, a rethrow from a catch, a catch without a binding,
// and a throw out of nested calls that no guest code catches.
// want: {"ok":true,"result":{"caught":"bad 1","message":"boom","runtime":true,"rethrown":"again: inner","bare":"caught","failures":1},"seq":1}
// want: {"ok":true,"result":{"caught":"bad 2","message":"boom","runtime":true,"rethrown":"again: inner","bare":"caught","failures":2},"seq":2}
// want: {"ok": false, "error": "deep 3"}
var failures = 0;
function fail(n) {
	failures++;
	throw "bad " + n;
}
function deep(n) {
	if (n === 0) {
		throw "deep " + failures;
	}
	return deep(n - 1);
}
function main(args) {
	var caught = "";
	try {
		fail(args.n);
		caught = "not reached";
	} catch (e) {
		caught = e;
	}
	var message = "";
	try {
		throw {message: "boom"};
	} catch (e) {
		message = e.message;
	}
	var runtime = false;
	try {
		var x = null;
		x.field = 1;
	} catch (e) {
		runtime = typeof e === "string";
	}
	var rethrown = "";
	try {
		try {
			throw "inner";
		} catch (e) {
			throw "again: " + e;
		}
	} catch (e) {
		rethrown = e;
	}
	var bare = "";
	try {
		undefinedFunction();
	} catch {
		bare = "caught";
	}
	if (args.n === 3) {
		deep(5);
	}
	return {caught: caught, message: message, runtime: runtime, rethrown: rethrown, bare: bare, failures: failures};
}
