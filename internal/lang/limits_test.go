package lang

import (
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
)

// recursionSource is the guest that used to end the host process with
// "fatal error: stack overflow": Go's 1 GB goroutine stack, exhausted.
const recursionSource = `function f(x){ return f(x+1); } function main(){ return f(0); }`

// doublingSource doubles a string forty times: a terabyte, were it built.
const doublingSource = `function main(){ var s = "x"; for (var i = 0; i < 40; i++) { s = s + s; } return s.length; }`

// dag is a guest array that renders as 128 MiB of text but costs 1 MiB
// and seven pairs to build.
const dag = `var a = ["x".repeat(1 << 20)]; for (var i = 0; i < 7; i++) { a = [a, a]; } `

// stringOfDAG renders dag again and again and keeps every copy.
const stringOfDAG = dag + `var keep = []; for (var j = 0; j < 200; j++) { keep.push(String(a)); } return keep.length;`

// caughtTypeErrorsSource provokes errors whose messages would name dag,
// a 64 KB identifier and a 64 KB property, catches them and keeps them.
var caughtTypeErrorsSource = `function main(){ ` + dag + `var keep = []; var n = 0; for (var j = 0; j < 200; j++) {
	try { a(); } catch (e) { keep.push(e); }
	try { ` + strings.Repeat("v", 64<<10) + `; } catch (e) { keep.push(e); }
	try { null.` + strings.Repeat("p", 64<<10) + `; } catch (e) { keep.push(e); }
	try { a[0][0][0][0][0][0][0][0][0].x; } catch (e) { keep.push(e); }
} for (var k = 0; k < keep.length; k++) { n = n + keep[k].length; } return n; }`

func callMain(t *testing.T, src string) (Value, error) {
	t.Helper()
	in := New(Hooks{})
	if _, err := in.RunSource(src); err != nil {
		t.Fatalf("module: %v", err)
	}
	return in.CallGlobal("main", nil)
}

func TestCallDepthLimit(t *testing.T) {
	if _, err := callMain(t, recursionSource); !errors.Is(err, ErrCallDepth) {
		t.Fatalf("unbounded recursion: err = %v, want ErrCallDepth", err)
	}
	// A guest cannot catch it and carry on.
	caught := `function f(x){ return f(x+1); } function main(){ try { f(0); } catch (e) { return "caught"; } return "done"; }`
	if _, err := callMain(t, caught); !errors.Is(err, ErrCallDepth) {
		t.Fatalf("recursion under try: err = %v, want ErrCallDepth", err)
	}
	// Deep but bounded recursion still runs, and a failed call leaves
	// the interpreter's depth where it was.
	in := New(Hooks{})
	if _, err := in.RunSource(`function g(n){ return n == 0 ? 0 : 1 + g(n-1); }`); err != nil {
		t.Fatal(err)
	}
	for _, n := range []float64{9000, 1e6, 9000} {
		v, err := in.CallGlobal("g", []Value{n})
		if n < MaxCallDepth && (err != nil || v != n) {
			t.Fatalf("g(%v) = %v, %v", n, v, err)
		}
		if n > MaxCallDepth && !errors.Is(err, ErrCallDepth) {
			t.Fatalf("g(%v): err = %v, want ErrCallDepth", n, err)
		}
	}
}

// TestCallDepthBoundsHostStack runs guests to the call-depth limit —
// one-line recursion, recursion through bodies nested as deeply as the
// parser allows, in expressions and in statements, and recursion through
// a builtin's callback — and requires the goroutine stacks in use to
// stay under 64 MB at the deepest point. They read 10-34 MB on amd64.
// The race detector's instrumentation makes every frame about four
// times larger (34 MB reads 130), so a race build is held to four times
// the bound: still a quarter of Go's 1 GB limit.
func TestCallDepthBoundsHostStack(t *testing.T) {
	bound := uint64(64 << 20)
	if raceBuild() {
		bound *= 4
	}
	exprs := strings.Repeat("1+(", 150) + "f(n+1)" + strings.Repeat(")", 150)
	stmts := strings.Repeat("if (n >= 0) {", 250) + "r = f(n+1);" + strings.Repeat("}", 250)
	for name, body := range map[string]string{
		"one-line":          `return f(n+1);`,
		"nested expression": `return ` + exprs + `;`,
		"nested statements": `var r = 0; ` + stmts + ` return r;`,
		"through builtins":  `return [n].map(function(m){ return f(m+1); })[0];`,
	} {
		var peak uint64
		in := New(Hooks{Output: func(string) {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			peak = max(peak, m.StackInuse)
		}})
		src := `function f(n){ if (n % 16 == 0) { console.log(n); } ` + body + ` }`
		if _, err := in.RunSource(src); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		errc := make(chan error)
		go func() { // a fresh goroutine, so its stack is the guest's alone
			_, err := in.CallGlobal("f", []Value{0.0})
			errc <- err
		}()
		if err := <-errc; !errors.Is(err, ErrCallDepth) {
			t.Fatalf("%s: err = %v, want ErrCallDepth", name, err)
		}
		t.Logf("%s: %.1f MB of goroutine stack at the deepest point", name, float64(peak)/(1<<20))
		if peak > bound {
			t.Errorf("%s: %d bytes of goroutine stack in use, want under %d", name, peak, bound)
		}
	}
}

// raceBuild reports whether this test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

func TestNestingCap(t *testing.T) {
	for name, src := range map[string]string{
		"parentheses": strings.Repeat("(", 1<<20),
		"unary":       strings.Repeat("!", 1<<20) + "x",
		"blocks":      strings.Repeat("{", 1<<19) + strings.Repeat("}", 1<<19),
		"operators":   "x" + strings.Repeat("+x", 1<<19),
		"members":     "x" + strings.Repeat(".y", 1<<19),
		"template":    "`" + strings.Repeat("${x}", 1<<18) + "`",
	} {
		_, err := Parse(src)
		var se *SyntaxError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "nest too deeply") {
			t.Errorf("%s: err = %v, want a nesting syntax error", name, err)
		}
	}
	// Code that nests as real code does still parses, and a function
	// records how deeply its body nests.
	prog, err := Parse(`function f(a){ return ` + strings.Repeat("(", 100) + "a" + strings.Repeat(")", 100) + `; }`)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Body[0].(*VarDecl).Init.(*FuncLit)
	if fn.Nesting < 200 || fn.Nesting > maxNesting {
		t.Errorf("Nesting = %d for a body 100 parentheses deep", fn.Nesting)
	}
}

func TestHostMemoryBudget(t *testing.T) {
	if _, err := callMain(t, doublingSource); !errors.Is(err, ErrHostMemory) {
		t.Errorf("doubling: err = %v, want ErrHostMemory", err)
	}
	for name, body := range map[string]string{
		"repeat":        `return "ab".repeat(1e12).length;`,
		"index":         `var a = []; a[1e9] = 1; return a.length;`,
		"length":        `var a = []; a.length = 1e9; return a.length;`,
		"replaceAll":    `var s = "x".repeat(1 << 16); return s.replaceAll("", s).length;`,
		"padStart":      `return "x".padStart(1e12).length;`,
		"concat":        `var a = [1]; for (var i = 0; i < 40; i++) { a = a.concat(a); } return a.length;`,
		"join of DAG":   `var a = [1]; for (var i = 0; i < 40; i++) { a = [a, a]; } return a.join("").length;`,
		"JSON of DAG":   `var o = {v: 1}; for (var i = 0; i < 40; i++) { o = {l: o, r: o}; } return JSON.stringify(o).length;`,
		"String of DAG": stringOfDAG,
		"sort of DAGs":  dag + `return [a, a, a].sort().length;`,
		"key of DAG":    dag + `var o = {}; var n = 0; for (var j = 0; j < 200; j++) { if (o[a] === undefined) { n++; } } return n;`,
		"concat of DAG": dag + `var keep = []; for (var j = 0; j < 200; j++) { keep.push("" + a); } return keep.length;`,
		"JSON.parse":    `var s = "[" + "0,".repeat(1e7) + "0]"; return JSON.parse(s).length;`,
		"console.log":   `var s = "x".repeat(16 << 20); console.log(s, s, s, s, s); return 0;`,
	} {
		_, err := callMain(t, `function main(){ `+body+` }`)
		if !errors.Is(err, ErrHostMemory) {
			t.Errorf("%s: err = %v, want ErrHostMemory", name, err)
		}
	}
	// Errors a guest catches name the value that caused them in a few
	// bytes, whatever that value renders as.
	v, err := callMain(t, caughtTypeErrorsSource)
	if err != nil || v.(float64) > 800*100 {
		t.Errorf("caught errors: %v bytes of messages, %v; want under 100 bytes each", v, err)
	}
	// The budget is per entry into the guest: a UC that charges most of
	// it on every invocation keeps running.
	in := New(Hooks{})
	if _, err := in.RunSource(`function main(){ return "x".repeat(40 << 20).length; }`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if v, err := in.CallGlobal("main", nil); err != nil || v != float64(40<<20) {
			t.Fatalf("invocation %d: %v, %v", i, v, err)
		}
	}
}

// TestGrowthBoundedOverLifetime: array slots an index or a length
// creates are not priced by the guest heap, so a guest that keeps them
// in a global across invocations is held to MaxHostBytes over the
// interpreter's life, not per entry.
func TestGrowthBoundedOverLifetime(t *testing.T) {
	in := New(Hooks{})
	if _, err := in.RunSource(`var g = []; function main(){ g.length += 2000000; return g.length; }`); err != nil {
		t.Fatal(err)
	}
	var err error
	calls := 0
	for ; calls < 10 && err == nil; calls++ {
		_, err = in.CallGlobal("main", nil)
	}
	if !errors.Is(err, ErrHostMemory) || calls != 3 {
		t.Fatalf("after %d invocations: err = %v, want ErrHostMemory on the third", calls, err)
	}
	// Growth that is not kept is not the same thing: assigned slots are
	// priced by the guest heap, and a filled array does not grow.
	in = New(Hooks{})
	if _, err := in.RunSource(`function main(){ var a = []; for (var i = 0; i < 1000; i++) { a[i] = i; } return a.length; }`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if v, err := in.CallGlobal("main", nil); err != nil || v != 1000.0 {
			t.Fatalf("invocation %d: %v, %v", i, v, err)
		}
	}
}

// TestLoopsDoNotMaterializeItems: for-of over a string and for-in over
// an array produce their items as the loop runs.
func TestLoopsDoNotMaterializeItems(t *testing.T) {
	in := New(Hooks{})
	if _, err := in.RunSource(`var s = "é".repeat(4 << 20); var a = []; a.length = 2 << 20;
		function main(){ var n = 0; for (var c of s) { n++; if (n == 3) { break; } } for (var k in a) { n++; break; } return n; }`); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, err := in.CallGlobal("main", nil)
	runtime.ReadMemStats(&after)
	if err != nil || v != 4.0 {
		t.Fatalf("main = %v, %v", v, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("two loops that stop at once allocated %d bytes", grew)
	}
}

// TestCyclicValuesRender: a value that contains itself renders the way
// JavaScript renders a cycle in join, instead of recursing forever.
func TestCyclicValuesRender(t *testing.T) {
	v, err := callMain(t, `function main(){ var a = [1]; a.push(a); var o = {}; o.self = o; return [a.join("-"), "" + a, JSON.stringify(o).length > 0]; }`)
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*Array).Elems
	if !strings.HasPrefix(got[0].(string), "1-1,1,") || !strings.HasPrefix(got[1].(string), "1,1,") || got[2] != true {
		t.Errorf("cyclic renders = %q, %q, %v", got[0], got[1], got[2])
	}
}

// TestJSONParseMatchesUnmarshal: JSON.parse reads a document in place,
// and must accept, reject and decode what json.Unmarshal does, with
// json.Unmarshal's error message.
func TestJSONParseMatchesUnmarshal(t *testing.T) {
	for _, doc := range []string{
		`{"a":[1,"b",null,{"c":true,"b":[]}],"z":{"y":1,"x":2,"y":3}}`,
		` { "args" : { "n" : 5 , "s" : "x" } } `,
		`[-0, 1e-5, -12.5E+3, true, false, null, ""]`,
		`"a\"b\\cé😀\ud800"`, "\"\xff\"", `{"":1,"a\u0000":2}`,
		strings.Repeat("[", 500) + strings.Repeat("]", 500),
		`1e400`, `1 2`, `1]`, ``, `[1,`, `{"a" 1}`,
	} {
		v, err := parseJSON(New(Hooks{}), doc)
		var want any
		werr := json.Unmarshal([]byte(doc), &want)
		switch {
		case werr != nil:
			if te, ok := err.(*ThrowError); !ok || te.Value != "JSON.parse: "+werr.Error() {
				t.Errorf("%.40q: err = %v, want JSON.parse: %v", doc, err, werr)
			}
		case err != nil || !reflect.DeepEqual(GoValue(v), want):
			t.Errorf("%.40q = %#v, %v; want %#v", doc, GoValue(v), err, want)
		}
	}
}
