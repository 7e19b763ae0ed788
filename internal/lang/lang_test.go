package lang

import (
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
		`[3,1,2].indexOf(1)`:                      "1",
		`[1,2,3].includes(2)`:                     "true",
		`[1,2,3].map(x => x * 2).join(",")`:       "2,4,6",
		`[1,2,3,4].filter(x => x % 2 === 0)[0]`:   "2",
		`[1,2,3].reduce((a, b) => a + b, 10)`:     "16",
		`[1,2,3].reduce((a, b) => a + b)`:         "6",
		`[1,2,3].slice(1).join(",")`:              "2,3",
		`[1,2].concat([3,4]).length`:              "4",
		`[1,2,3].reverse().join("")`:              "321",
		`var a = [1,2,3]; a.pop(); a.join(",")`:   "1,2",
		`var a = [1,2,3]; a.shift(); a.join("")`:  "23",
		`var a = []; a[4] = 1; a.length`:          "5",
		`var a = [1,2,3]; a.length = 1; a.join()`: "1",
	}
	for src, want := range cases {
		if got := ToString(run(t, src)); got != want {
			t.Errorf("%q = %q, want %q", src, got, want)
		}
	}
}

func TestArrowFunctions(t *testing.T) {
	src := `
		var add = (a, b) => a + b;
		var sq = x => x * x;
		var block = (x) => { return x + 1; };
		add(1, 2) + sq(3) + block(4);
	`
	if got := runNum(t, src); got != 3+9+5 {
		t.Errorf("got %v", got)
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
	if TreeSize(big) <= TreeSize(small) {
		t.Errorf("TreeSize not monotone: %d <= %d", TreeSize(big), TreeSize(small))
	}
}

func TestTryArrowParamsBacktrack(t *testing.T) {
	// "(a + b)" must parse as a parenthesized expression, not arrow params.
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

func TestSwitchStatement(t *testing.T) {
	cases := map[string]string{
		// Basic matching with break.
		`var r = ""; switch (2) { case 1: r = "one"; break; case 2: r = "two"; break; default: r = "other"; } r;`: "two",
		// Default arm.
		`var r = ""; switch (9) { case 1: r = "one"; break; default: r = "other"; } r;`: "other",
		// Fallthrough accumulates.
		`var r = ""; switch (1) { case 1: r += "a"; case 2: r += "b"; break; case 3: r += "c"; } r;`: "ab",
		// Fallthrough into default.
		`var r = ""; switch (3) { case 3: r += "c"; default: r += "d"; } r;`: "cd",
		// Strict matching: "1" does not match 1.
		`var r = "none"; switch ("1") { case 1: r = "number"; break; default: r = "default"; } r;`: "default",
		// Expression cases.
		`var x = 5; var r = 0; switch (x) { case 2 + 3: r = 42; break; } r;`: "42",
		// No match, no default: nothing runs.
		`var r = "untouched"; switch (7) { case 1: r = "no"; break; } r;`: "untouched",
	}
	for src, want := range cases {
		if got := ToString(run(t, src)); got != want {
			t.Errorf("%q = %q, want %q", src, got, want)
		}
	}
}

func TestSwitchInsideLoop(t *testing.T) {
	src := `
		var evens = 0;
		var odds = 0;
		for (var i = 0; i < 10; i++) {
			switch (i % 2) {
			case 0: evens++; break;
			default: odds++;
			}
		}
		evens * 10 + odds;
	`
	if got := runNum(t, src); got != 55 {
		t.Errorf("got %v", got)
	}
}

func TestDoWhile(t *testing.T) {
	// Body runs at least once even when the condition is false.
	src := `var n = 0; do { n++; } while (false); n;`
	if got := runNum(t, src); got != 1 {
		t.Errorf("got %v", got)
	}
	src = `var n = 1; do { n = n * 3; } while (n < 100); n;`
	if got := runNum(t, src); got != 243 {
		t.Errorf("got %v", got)
	}
	// break and continue work.
	src = `var n = 0; var iter = 0; do { iter++; if (iter % 2 === 0) { continue; } n++; if (iter >= 9) { break; } } while (true); n;`
	if got := runNum(t, src); got != 5 {
		t.Errorf("got %v", got)
	}
}

func TestSwitchSyntaxErrors(t *testing.T) {
	for _, src := range []string{
		`switch (1) { case 1 }`,     // missing colon
		`switch (1) { foo: 1; }`,    // not case/default
		`switch { case 1: break; }`, // missing tag parens
		`do { } until (true);`,      // bad keyword
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q parsed", src)
		}
	}
}

func TestTemplateLiterals(t *testing.T) {
	cases := map[string]string{
		"`plain`":                          "plain",
		"``":                               "",
		"var x = 7; `x is ${x}`":           "x is 7",
		"`${1 + 2} and ${3 * 4}`":          "3 and 12",
		"var o = {n: \"go\"}; `hi ${o.n}`": "hi go",
		"`outer ${`inner ${1}`}!`":         "outer inner 1!",
		"`a${[1,2].join(\"-\")}b`":         "a1-2b",
	}
	for src, want := range cases {
		if got := ToString(run(t, src)); got != want {
			t.Errorf("%q = %q, want %q", src, got, want)
		}
	}
}

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
		`"5".padStart(3, "0")`:         "005",
		`"5".padEnd(3, "x")`:           "5xx",
		`"abc".padStart(2)`:            "abc",
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
		`[10,9,80].sort((a,b) => a - b).join(",")`:                    "9,10,80",
		`[1,2,3].some(x => x > 2)`:                                    "true",
		`[1,2,3].some(x => x > 5)`:                                    "false",
		`[1,2,3].every(x => x > 0)`:                                   "true",
		`[1,2,3].every(x => x > 1)`:                                   "false",
		`[1,2,3,4].find(x => x % 2 === 0)`:                            "2",
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
		items.sort((x, y) => x.k < y.k ? -1 : (x.k > y.k ? 1 : 0));
		items.map(e => e.i).join(",");
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
