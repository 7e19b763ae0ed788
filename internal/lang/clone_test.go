package lang

import "testing"

// TestCloneKeepsSharingAndCycles: references the original shares stay
// shared within the copy, cycles stay cycles, key order survives, and
// writes on either side do not cross.
func TestCloneKeepsSharingAndCycles(t *testing.T) {
	in := New(Hooks{})
	if _, err := in.RunSource(`
		var a = {z: 1, y: 2};
		a.self = a;
		var b = a;
		var arr = [a];
		arr.push(arr);
		var push = arr.push;
		function mk() { var n = 0; return [function() { n = n + 1; return n; }, function() { return n; }]; }
		var pair = mk();
		pair[0]();
	`); err != nil {
		t.Fatal(err)
	}
	cp := in.Clone(Hooks{})
	check := func(in *Interp, src string, want Value) {
		t.Helper()
		got, err := in.RunSource(src)
		if err != nil || got != want {
			t.Errorf("%s = %v, %v; want %v", src, got, err, want)
		}
	}
	check(cp, `a.self === a && b === a && arr[0] === a && arr[1] === arr`, true)
	check(cp, `Object.keys(a).join(",")`, "z,y,self")
	// The two closures share one captured scope, in the copy as in the
	// original; the copy's scope starts where the original's was.
	check(cp, `pair[0](); pair[1]()`, float64(2))
	check(in, `pair[1]()`, float64(1))
	// A method read off an array is bound to the copy's array.
	check(cp, `push(5); arr.length`, float64(3))
	check(in, `arr.length`, float64(2))
	check(cp, `b.z = 9; a.w = 1; Math.extra = 1; a.z`, float64(9))
	check(in, `a.z + "," + typeof a.w + "," + typeof Math.extra`, "1,undefined,undefined")
}

// TestCloneKeepsCounters: the copy continues the original's step count
// and lifetime growth, so step budgets and the growth bound behave as
// they would have in the original.
func TestCloneKeepsCounters(t *testing.T) {
	in := New(Hooks{})
	if _, err := in.RunSource(`var a = []; a.length = 1000; for (var i = 0; i < 10; i++) {}`); err != nil {
		t.Fatal(err)
	}
	in.LimitSteps(1000)
	cp := in.Clone(Hooks{})
	if cp.steps != in.steps || cp.maxSteps != in.maxSteps || cp.grown != in.grown || cp.grown == 0 {
		t.Errorf("clone counters %d/%d/%d, original %d/%d/%d",
			cp.steps, cp.maxSteps, cp.grown, in.steps, in.maxSteps, in.grown)
	}
}
