// Equality: == coerces between numbers, strings and booleans and puts
// null and undefined together; === does not; objects are equal only to
// themselves.
// want: {"ok":true,"result":"loose:true,true,true,true,false,false strict:false,false,true,false,true,false","seq":1}
// want: {"ok":true,"result":"loose:true,true,true,true,false,false strict:false,false,true,false,true,false","seq":2}
// want: {"ok": false, "error": "mismatch at 3"}
var first = {};
function main(args) {
	var same = first;
	var loose = [1 == "1", 0 == false, null == undefined, same == first, {} == {}, null == 0];
	var strict = [1 === "1", null === undefined, same === first, 0 / 0 === 0 / 0, "a" + "b" === "ab", 1 !== 1];
	if (args.n === 3 && args.n != "2") {
		throw "mismatch at " + args.n;
	}
	return "loose:" + loose.join(",") + " strict:" + strict.join(",");
}
