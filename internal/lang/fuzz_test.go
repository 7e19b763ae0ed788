package lang

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzEval parses and runs arbitrary source, then calls its main if it
// defines one, under a step budget. Whatever the source, the host must
// come back with a value or an error: no panic, no stack overflow, no
// allocation the operating system refuses. The seeds are the guest
// conformance corpus (testdata/guest), the hostile guests the
// interpreter bounds, and sources that reach every error the evaluator
// can return.
func FuzzEval(f *testing.F) {
	corpus, err := filepath.Glob("../../testdata/guest/*.js")
	if err != nil || len(corpus) == 0 {
		f.Fatalf("no guest corpus: %v", err)
	}
	for _, path := range corpus {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, src := range []string{
		recursionSource,
		doublingSource,
		`function main(){ ` + stringOfDAG + ` }`,
		caughtTypeErrorsSource,
		`function main(){ var s = "[" + "0,".repeat(1e7) + "0]"; return JSON.parse(s).length; }`,
		strings.Repeat("(", 4096),
		"x" + strings.Repeat("+x", 1024),
		`function main(){ var a = [1]; a.push(a); var o = {}; o.o = o; return [a + "", JSON.stringify(o)]; }`,
		`function main(){ var a = []; a[1e9] = 1; a.length = 1e12; return "ab".repeat(1e12); }`,
		`function main(){ return "z".replaceAll("", "zz"); }`,
		`function main(){ var a = [3, 1, 2]; return a.sort(function(x, y){ return x - y; }).concat([[4]]).flat(); }`,
		`function main(){ return JSON.parse('{"a": [1, "b", null, {"c": true}]}'); }`,
		`break;`,
		`continue;`,
		`return 1;`,
		`throw "boom";`,
		`function main(){ throw {message: "boom"}; }`,
		`function main(){ try { null.x; } catch (e) { return e; } }`,
		`var x = ;`,
		`"unterminated`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if toks, err := lexAll(src); err == nil {
			for _, tok := range toks {
				if !strings.HasPrefix(tok.String(), tok.Kind.String()+"(") {
					t.Fatalf("token %#v renders as %q", tok, tok.String())
				}
			}
		}
		in := New(Hooks{})
		in.SetMaxSteps(100_000)
		_, err := in.RunSource(src)
		if err == nil {
			if _, ok := in.globals.get("main"); ok {
				_, err = in.CallGlobal("main", nil)
			}
		}
		if err != nil && err.Error() == "" {
			t.Fatalf("error %#v has no message", err)
		}
	})
}
