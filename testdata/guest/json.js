// JSON: stringify of nested objects, arrays, strings with escapes,
// null and booleans; parse of what stringify wrote; a parse error a
// guest catches and one it does not.
// want: {"ok":true,"result":{"text":"{\"n\":1,\"list\":[1,\"q\\\"\",null,true],\"sub\":{}}","back":1,"list":4,"bad":"caught","saved":1},"seq":1}
// want: {"ok":true,"result":{"text":"{\"n\":2,\"list\":[1,\"q\\\"\",null,true],\"sub\":{}}","back":2,"list":4,"bad":"caught","saved":2},"seq":2}
// want: {"ok": false, "error": "JSON.parse: unexpected end of JSON input"}
var saved = [];
function main(args) {
	var text = JSON.stringify({n: args.n, list: [1, "q\"", null, true], sub: {}});
	var parsed = JSON.parse(text);
	saved.push(JSON.parse(JSON.stringify(parsed.n)));
	var bad = "";
	try {
		JSON.parse("{");
	} catch (e) {
		bad = "caught";
	}
	if (args.n === 3) {
		JSON.parse("[1,");
	}
	return {text: text, back: parsed.n, list: parsed.list.length, bad: bad, saved: saved.length};
}
