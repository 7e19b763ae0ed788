package lang

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// run evaluates source and returns the value of the last expression
// statement.
func run(t *testing.T, src string) Value {
	t.Helper()
	in := New(Hooks{})
	v, err := in.RunSource(src)
	if err != nil {
		t.Fatalf("run %q: %v", src, err)
	}
	return v
}

func runNum(t *testing.T, src string) float64 {
	t.Helper()
	v := run(t, src)
	n, ok := v.(float64)
	if !ok {
		t.Fatalf("%q = %v (%T), want number", src, v, v)
	}
	return n
}

func TestArithmetic(t *testing.T) {
	cases := map[string]float64{
		"1 + 2 * 3":          7,
		"(1 + 2) * 3":        9,
		"10 / 4":             2.5,
		"7 % 3":              1,
		"-3 + 1":             -2,
		"2 * 3 + 4 * 5":      26,
		"1 << 4":             16,
		"255 & 15":           15,
		"8 | 1":              9,
		"5 ^ 1":              4,
		"0x10 + 1":           17,
		"1.5e2":              150,
		"Math.pow(2, 10)":    1024,
		"Math.floor(3.7)":    3,
		"Math.max(1, 9, -4)": 9,
		"Math.min(1, 9, -4)": -4,
		"Math.abs(-5)":       5,
	}
	for src, want := range cases {
		if got := runNum(t, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestStrings(t *testing.T) {
	cases := map[string]string{
		`"a" + "b"`:                     "ab",
		`"n=" + 42`:                     "n=42",
		`"Hello".toUpperCase()`:         "HELLO",
		`"Hello".slice(1, 3)`:           "el",
		`"a,b,c".split(",").join("-")`:  "a-b-c",
		`"  x  ".trim()`:                "x",
		`"ab".repeat(3)`:                "ababab",
		`"hello".charAt(1)`:             "e",
		`typeof "x"`:                    "string",
		`typeof 1`:                      "number",
		`typeof undefinedName`:          "undefined",
		`typeof function(){}`:           "function",
		`JSON.stringify({a:1, b:[2]})`:  `{"a":1,"b":[2]}`,
		`JSON.parse('{"x": 5}').x + ""`: "5",
	}
	for src, want := range cases {
		v := run(t, src)
		if got := ToString(v); got != want {
			t.Errorf("%q = %q, want %q", src, got, want)
		}
	}
}

func TestVariablesAndScope(t *testing.T) {
	src := `
		var x = 1;
		var y = 2;
		function f() { var x = 10; return x + y; }
		f() + x;
	`
	if got := runNum(t, src); got != 13 {
		t.Errorf("got %v", got)
	}
}

func TestClosures(t *testing.T) {
	src := `
		function counter() {
			var n = 0;
			return function() { n = n + 1; return n; };
		}
		var c = counter();
		c(); c();
		c();
	`
	if got := runNum(t, src); got != 3 {
		t.Errorf("closure counter = %v, want 3", got)
	}
}

func TestClosuresAreIndependent(t *testing.T) {
	src := `
		function mk(start) { return function() { start = start + 1; return start; }; }
		var a = mk(0);
		var b = mk(100);
		a(); a(); b();
		a() + b();
	`
	if got := runNum(t, src); got != 3+102 {
		t.Errorf("got %v", got)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
		var total = 0;
		for (var i = 0; i < 10; i++) {
			if (i % 2 === 0) { continue; }
			if (i === 9) { break; }
			total += i;
		}
		total;
	`
	if got := runNum(t, src); got != 1+3+5+7 {
		t.Errorf("got %v", got)
	}
}

func TestWhileLoop(t *testing.T) {
	src := `
		var n = 1;
		while (n < 100) { n = n * 2; }
		n;
	`
	if got := runNum(t, src); got != 128 {
		t.Errorf("got %v", got)
	}
}

func TestForOfAndForIn(t *testing.T) {
	src := `
		var sum = 0;
		for (var v of [1, 2, 3]) { sum += v; }
		var keys = "";
		for (var k in {a: 1, b: 2}) { keys += k; }
		sum + ":" + keys;
	`
	if got := ToString(run(t, src)); got != "6:ab" {
		t.Errorf("got %q", got)
	}
}

func TestRecursion(t *testing.T) {
	src := `
		function fib(n) { return n < 2 ? n : fib(n-1) + fib(n-2); }
		fib(15);
	`
	if got := runNum(t, src); got != 610 {
		t.Errorf("fib(15) = %v", got)
	}
}

func TestObjectsAndArrays(t *testing.T) {
	src := `
		var o = {name: "seuss", tags: ["fast", "dense"]};
		o.year = 2020;
		o["venue"] = "eurosys";
		o.tags.push("unikernel");
		o.name + "/" + o.year + "/" + o.venue + "/" + o.tags.length;
	`
	if got := ToString(run(t, src)); got != "seuss/2020/eurosys/3" {
		t.Errorf("got %q", got)
	}
}

func TestArrayMethods(t *testing.T) {
	cases := map[string]string{
		`[3,1,2].indexOf(1)`:  "1",
		`[1,2,3].includes(2)`: "true",
		`[1,2,3].map(function (x) { return x * 2; }).join(",")`:     "2,4,6",
		`[1,2,3,4].filter(function (x) { return x % 2 === 0; })[0]`: "2",
		`[1,2,3].reduce(function (a, b) { return a + b; }, 10)`:     "16",
		`[1,2,3].reduce(function (a, b) { return a + b; })`:         "6",
		`[1,2,3].slice(1).join(",")`:                                "2,3",
		`[1,2].concat([3,4]).length`:                                "4",
		`[1,2,3].reverse().join("")`:                                "321",
		`var a = [1,2,3]; a.pop(); a.join(",")`:                     "1,2",
		`var a = [1,2,3]; a.shift(); a.join("")`:                    "23",
		`var a = []; a[4] = 1; a.length`:                            "5",
		`var a = [1,2,3]; a.length = 1; a.join()`:                   "1",
	}
	for src, want := range cases {
		if got := ToString(run(t, src)); got != want {
			t.Errorf("%q = %q, want %q", src, got, want)
		}
	}
}

func TestTernaryAndLogical(t *testing.T) {
	cases := map[string]string{
		`true ? "a" : "b"`:   "a",
		`0 ? "a" : "b"`:      "b",
		`null && "x"`:        "null",
		`null || "fallback"`: "fallback",
		`"v" && "w"`:         "w",
		`1 === 1.0`:          "true",
		`"1" == 1`:           "true",
		`"1" === 1`:          "false",
		`null == undefined`:  "true",
		`null === undefined`: "false",
	}
	for src, want := range cases {
		if got := ToString(run(t, src)); got != want {
			t.Errorf("%q = %q, want %q", src, got, want)
		}
	}
}

func TestThrowCatch(t *testing.T) {
	src := `
		var msg = "none";
		try {
			throw Error("boom");
		} catch (e) {
			msg = e.message;
		}
		msg;
	`
	if got := ToString(run(t, src)); got != "boom" {
		t.Errorf("got %q", got)
	}
}

func TestUncaughtThrow(t *testing.T) {
	in := New(Hooks{})
	_, err := in.RunSource(`throw "oops";`)
	te, ok := err.(*ThrowError)
	if !ok {
		t.Fatalf("err = %v (%T)", err, err)
	}
	if ToString(te.Value) != "oops" {
		t.Errorf("thrown = %v", te.Value)
	}
}

func TestRuntimeErrors(t *testing.T) {
	for _, src := range []string{
		`undefinedVar + 1`,
		`null.prop`,
		`undefined[0]`,
		`(5)()`,
	} {
		in := New(Hooks{})
		if _, err := in.RunSource(src); err == nil {
			t.Errorf("%q did not error", src)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	for _, src := range []string{
		`var = 5`,
		`function ({}`,
		`1 +`,
		`"unterminated`,
		`/* unterminated`,
		`{a: }`,
		`for (;;`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q parsed without error", src)
		} else if _, ok := err.(*syntaxError); !ok {
			t.Errorf("%q error type %T", src, err)
		}
	}
}

func TestStepBudget(t *testing.T) {
	in := New(Hooks{})
	in.SetMaxSteps(1000)
	_, err := in.RunSource(`while (true) {}`)
	if err != ErrTooManySteps {
		t.Errorf("err = %v, want ErrTooManySteps", err)
	}
}

func TestConsoleLogHook(t *testing.T) {
	var lines []string
	in := New(Hooks{Output: func(s string) { lines = append(lines, s) }})
	if _, err := in.RunSource(`console.log("hello", 42, [1,2]);`); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || lines[0] != "hello 42 1,2" {
		t.Errorf("lines = %q", lines)
	}
}

func TestAllocHookCharged(t *testing.T) {
	var total int
	in := New(Hooks{Alloc: func(n int) { total += n }})
	if _, err := in.RunSource(`var o = {a: 1, b: "xx"}; var l = [1,2,3]; var s = "a" + "b";`); err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Error("no allocations charged")
	}
}

func TestStepHookCharged(t *testing.T) {
	var steps int
	in := New(Hooks{Step: func(n int) { steps += n }})
	if _, err := in.RunSource(`var x = 0; for (var i = 0; i < 10; i++) { x += i; }`); err != nil {
		t.Fatal(err)
	}
	if steps < 50 {
		t.Errorf("steps = %d, implausibly low", steps)
	}
}

func TestHTTPGetHook(t *testing.T) {
	in := New(Hooks{HTTPGet: func(url string) (string, error) {
		return "body-of-" + url, nil
	}})
	v, err := in.RunSource(`http.get("svc");`)
	if err != nil {
		t.Fatal(err)
	}
	if ToString(v) != "body-of-svc" {
		t.Errorf("got %v", v)
	}
}

func TestSpinAndSleepHooks(t *testing.T) {
	var spun, slept float64
	in := New(Hooks{
		Spin:  func(ms float64) { spun += ms },
		Sleep: func(ms float64) { slept += ms },
	})
	if _, err := in.RunSource(`spin(150); sleep(250);`); err != nil {
		t.Fatal(err)
	}
	if spun != 150 || slept != 250 {
		t.Errorf("spun=%v slept=%v", spun, slept)
	}
}

func TestCallGlobal(t *testing.T) {
	in := New(Hooks{})
	if _, err := in.RunSource(`function main(args) { return args.n * 2; }`); err != nil {
		t.Fatal(err)
	}
	argObj := newObject()
	argObj.set("n", 21.0)
	v, err := in.CallGlobal("main", []Value{argObj})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := v.(float64); n != 42 {
		t.Errorf("main = %v", v)
	}
}

func TestCallGlobalMissing(t *testing.T) {
	in := New(Hooks{})
	if _, err := in.CallGlobal("nope", nil); err == nil {
		t.Error("no error for missing global")
	}
}

func TestUpdateOperators(t *testing.T) {
	cases := map[string]float64{
		`var x = 1; x++; x`:             2,
		`var x = 1; ++x`:                2,
		`var x = 1; x++`:                1,
		`var x = 5; x--; x`:             4,
		`var a = [1]; a[0]++; a[0]`:     2,
		`var o = {n: 1}; o.n += 4; o.n`: 5,
		`var x = 10; x *= 3; x`:         30,
		`var x = 10; x /= 4; x`:         2.5,
	}
	for src, want := range cases {
		if got := runNum(t, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestObjectKeys(t *testing.T) {
	src := `Object.keys({z: 1, a: 2, m: 3}).join(",")`
	if got := ToString(run(t, src)); got != "z,a,m" {
		t.Errorf("insertion order broken: %q", got)
	}
}

func TestCommentsSkipped(t *testing.T) {
	src := `
		// line comment
		var x = 1; /* block
		comment */ var y = 2;
		x + y;
	`
	if got := runNum(t, src); got != 3 {
		t.Errorf("got %v", got)
	}
}

func TestGuestSizeGrowsWithSource(t *testing.T) {
	small, err := Parse(`function f() { return 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	bigSrc := `function f() { var a = 0; `
	for i := 0; i < 100; i++ {
		bigSrc += `a = a + ` + strings.Repeat("1", 3) + `; `
	}
	bigSrc += `return a; }`
	big, err := Parse(bigSrc)
	if err != nil {
		t.Fatal(err)
	}
	if big.Size() <= small.Size() {
		t.Errorf("Size not monotone: %d <= %d", big.Size(), small.Size())
	}
	if big.Size() != treeSize(big) {
		t.Errorf("Size %d, want the tree's %d", big.Size(), treeSize(big))
	}
}

func TestTryArrowParamsBacktrack(t *testing.T) {
	// "(a + b)" parses as a parenthesized expression.
	src := `var a = 1; var b = 2; (a + b) * 2;`
	if got := runNum(t, src); got != 6 {
		t.Errorf("got %v", got)
	}
}

// Property: the interpreter is deterministic — same program, same result.
func TestQuickDeterministicEval(t *testing.T) {
	prop := func(a, b int8, op uint8) bool {
		ops := []string{"+", "-", "*", "|", "&", "^"}
		src := ToString(float64(a)) + " " + ops[int(op)%len(ops)] + " " + ToString(float64(b)) + ";"
		i1 := New(Hooks{})
		i2 := New(Hooks{})
		v1, e1 := i1.RunSource(src)
		v2, e2 := i2.RunSource(src)
		if (e1 == nil) != (e2 == nil) {
			return false
		}
		return e1 != nil || strictEquals(v1, v2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: integer arithmetic matches Go for small operands.
func TestQuickArithmeticMatchesGo(t *testing.T) {
	prop := func(a, b int16) bool {
		in := New(Hooks{})
		src := formatNumber(float64(a)) + " + " + formatNumber(float64(b)) + ";"
		v, err := in.RunSource(src)
		if err != nil {
			return false
		}
		return v.(float64) == float64(a)+float64(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: JSON round trip preserves structure for generated objects.
func TestQuickJSONRoundTrip(t *testing.T) {
	prop := func(n uint8, s string) bool {
		if len(s) > 20 {
			return true
		}
		for _, r := range s {
			// Keep to printable ASCII without quoting hazards: escape
			// fidelity for exotic runes is not what this property tests.
			if r < 0x20 || r > 0x7e || r == '"' || r == '\\' || r == '\'' {
				return true
			}
		}
		in := New(Hooks{})
		src := `JSON.stringify(JSON.parse(JSON.stringify({n: ` + formatNumber(float64(n)) + `, s: "` + s + `"})));`
		v, err := in.RunSource(src)
		if err != nil {
			return false
		}
		want := `{"n":` + formatNumber(float64(n)) + `,"s":"` + s + `"}`
		return ToString(v) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestUnsupportedConstructs: a construct outside the MiniJS subset is
// a syntax error that names it, so a tenant learns why a function was
// refused (seuss-node answers 422 with the message).
func TestUnsupportedConstructs(t *testing.T) {
	for src, name := range map[string]string{
		`switch (x) {}`:                    "switch",
		`do {} while (0)`:                  "do-while",
		"`x`":                              "template literal",
		`x => x`:                           "arrow function",
		`var f = (a, b) => { return a; };`: "arrow function",
	} {
		_, err := Parse(src)
		var se *syntaxError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, name) {
			t.Errorf("%s: err = %v, want a syntax error naming %s", src, err, name)
		}
	}
}

// TestSwitchSyntaxErrors: switch and do-while are outside the subset,
// so every form of them, well formed or not, fails to parse.
func TestSwitchSyntaxErrors(t *testing.T) {
	for _, src := range []string{
		`switch (1) { case 1 }`,
		`switch (1) { foo: 1; }`,
		`switch { case 1: break; }`,
		`do { } until (true);`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q parsed", src)
		}
	}
}

// TestTemplateSyntaxErrors: template literals are outside the subset,
// so every form of them, well formed or not, fails to parse.
func TestTemplateSyntaxErrors(t *testing.T) {
	for _, src := range []string{
		"`unterminated",
		"`bad ${1 +`",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q parsed", src)
		}
	}
}

func TestExtendedStringMethods(t *testing.T) {
	cases := map[string]string{
		`"a-b-c".replace("-", "+")`:    "a+b-c",
		`"a-b-c".replaceAll("-", "+")`: "a+b+c",
		`"hello".substring(1, 3)`:      "el",
	}
	for src, want := range cases {
		if got := ToString(run(t, src)); got != want {
			t.Errorf("%q = %q, want %q", src, got, want)
		}
	}
}

func TestExtendedArrayMethods(t *testing.T) {
	cases := map[string]string{
		`[3,1,2].sort().join(",")`:                                    "1,2,3",
		`[10,9,80].sort().join(",")`:                                  "10,80,9", // JS default string sort
		`[10,9,80].sort(function (a, b) { return a - b; }).join(",")`: "9,10,80",
		`[1,2,3].some(function (x) { return x > 2; })`:                "true",
		`[1,2,3].some(function (x) { return x > 5; })`:                "false",
		`[1,2,3].every(function (x) { return x > 0; })`:               "true",
		`[1,2,3].every(function (x) { return x > 1; })`:               "false",
		`[1,2,3,4].find(function (x) { return x % 2 === 0; })`:        "2",
		`[[1,2],[3],[4]].flat().join(",")`:                            "1,2,3,4",
		`Array.isArray([1])`:                                          "true",
		`Array.isArray("no")`:                                         "false",
		`var o = Object.assign({a:1}, {b:2}, {a:9}); o.a + "," + o.b`: "9,2",
	}
	for src, want := range cases {
		if got := ToString(run(t, src)); got != want {
			t.Errorf("%q = %q, want %q", src, got, want)
		}
	}
}

func TestSortStability(t *testing.T) {
	src := `
		var items = [{k: "b", i: 1}, {k: "a", i: 2}, {k: "b", i: 3}, {k: "a", i: 4}];
		items.sort(function (x, y) { return x.k < y.k ? -1 : (x.k > y.k ? 1 : 0); });
		items.map(function (e) { return e.i; }).join(",");
	`
	if got := ToString(run(t, src)); got != "2,4,1,3" {
		t.Errorf("stable sort order = %q", got)
	}
}

func TestValueCoercionMatrix(t *testing.T) {
	numCases := map[string]float64{
		`+"42"`:      42,
		`+""`:        0,
		`+true`:      1,
		`+false`:     0,
		`+null`:      0,
		`+" 7 "`:     7,
		`1 + +"1.5"`: 2.5,
	}
	for src, want := range numCases {
		if got := runNum(t, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
	if got := runNum(t, `+"nope"`); got == got { // NaN check
		t.Errorf(`+"nope" = %v, want NaN`, got)
	}
}

func TestToStringForms(t *testing.T) {
	cases := map[string]string{
		`"" + [1,[2,3]]`:          "1,2,3",
		`"" + {}`:                 "[object Object]",
		`"" + null`:               "null",
		`"" + undefined`:          "undefined",
		`"" + 1e21`:               "1e+21",
		`"" + 0.5`:                "0.5",
		`"" + function named(){}`: "function named",
	}
	for src, want := range cases {
		if got := ToString(run(t, src)); got != want {
			t.Errorf("%q = %q, want %q", src, got, want)
		}
	}
}

func TestLooseVsStrictEquality(t *testing.T) {
	cases := map[string]string{
		`0 == false`:          "true",
		`0 === false`:         "false",
		`"" == 0`:             "true",
		`null == 0`:           "false",
		`undefined == null`:   "true",
		`[] === []`:           "false", // reference equality
		`var a = []; a === a`: "true",
	}
	for src, want := range cases {
		if got := ToString(run(t, src)); got != want {
			t.Errorf("%q = %q, want %q", src, got, want)
		}
	}
}

// TestJSONStringifyWritesJSON: whatever a guest renders, JSON.stringify
// writes JSON that encoding/json parses, as JavaScript does: null for
// NaN and ±Infinity, no member for an undefined or function value (null
// in an array), and JSON escapes, not Go's, for control bytes, with
// U+FFFD for invalid UTF-8.
func TestJSONStringifyWritesJSON(t *testing.T) {
	for src, want := range map[string]string{
		`JSON.stringify(0/0)`:                                         `null`,
		`JSON.stringify([1/0, -1/0, 0/0, 1.5])`:                       `[null,null,null,1.5]`,
		`JSON.stringify({a: undefined, b: function(){}, c: 1})`:       `{"c":1}`,
		`JSON.stringify({a: undefined, b: Math.floor})`:               `{}`,
		`JSON.stringify({n: {x: undefined}, d: 0/0})`:                 `{"n":{},"d":null}`,
		`JSON.stringify([undefined, function(){}, Math.floor, null])`: `[null,null,null,null]`,
		`JSON.stringify("\0")`:                                        `"\u0000"`,
		"JSON.stringify(\"\a\x1b\x7f\")":                              "\"\\u0007\\u001b\x7f\"",
		"JSON.stringify(\"\b\f\n\r\t\\\"\\\\\")":                      `"\b\f\n\r\t\"\\"`,
		"JSON.stringify(\"\U000e0001 \u2028 é\")":                     "\"\U000e0001 \u2028 é\"",
		"JSON.stringify(\"a\xffb\xe2\x82\")":                          "\"a\uFFFDb\uFFFD\uFFFD\"",
		"JSON.stringify({\"\x01\": \"\xc3\"})":                        "{\"\\u0001\":\"\uFFFD\"}",
	} {
		got := ToString(run(t, src))
		if got != want {
			t.Errorf("%q = %q, want %q", src, got, want)
		}
		var v any
		if err := json.Unmarshal([]byte(got), &v); err != nil {
			t.Errorf("%q = %q is not JSON: %v", src, got, err)
		}
	}
}
