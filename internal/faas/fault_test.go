package faas

import (
	"errors"
	"testing"
	"time"

	"seuss/internal/cluster"
	"seuss/internal/core"
	"seuss/internal/costs"
	"seuss/internal/fault"
	"seuss/internal/sim"
	"seuss/internal/workload"
)

// stubBackend takes d of virtual time per call and returns err.
type stubBackend struct {
	d     time.Duration
	err   error
	calls int
}

func (b *stubBackend) Name() string { return "stub" }

func (b *stubBackend) Invoke(p *sim.Proc, _ workload.Spec, _ string) error {
	b.calls++
	p.Sleep(b.d)
	return b.err
}

// TestPlatformNoRetryByDefault: the platform is its overhead plus the
// backend call. A contained error — the kind a retry layer would
// re-run — reaches the caller as the very value the backend returned,
// after one attempt, counted once.
func TestPlatformNoRetryByDefault(t *testing.T) {
	eng := sim.NewEngine()
	down := fault.Contain(errors.New("stub: down"))
	b := &stubBackend{d: 5 * time.Millisecond, err: down}
	c := NewCluster(b)
	var err error
	eng.Go("client", func(p *sim.Proc) { err = c.Invoke(p, workload.NOPSpec(0), "{}") })
	eng.Run()
	if err != down {
		t.Fatalf("err = %v, want the backend's own error value", err)
	}
	if got, want := time.Duration(eng.Now()), costs.ControllerOverhead+b.d; got != want {
		t.Errorf("returned at %v, want controller overhead + backend = %v", got, want)
	}
	if b.calls != 1 || c.Requests() != 1 || c.Failures() != 1 {
		t.Errorf("attempts=%d requests=%d failures=%d, want 1 each", b.calls, c.Requests(), c.Failures())
	}
}

// TestPlatformLeavesRetryToCluster: the failure table, executed. Over a
// two-member cluster with MaxRetries 2 whose members share one injector,
// a crash the budget covers is masked below the platform, and one that
// outlasts it surfaces after exactly MaxRetries+1 deploys: the layer
// above the cluster re-runs nothing.
func TestPlatformLeavesRetryToCluster(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		crashOn                   []uint64
		failures, retries, deploy int64
	}{
		{"masked", []uint64{1}, 0, 1, 2},
		{"exhausted", []uint64{1, 2, 3, 4, 5, 6}, 1, 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			nc := core.DefaultConfig()
			nc.Faults = fault.New(fault.Config{Schedule: map[fault.Point][]uint64{fault.PointUCCrash: tc.crashOn}})
			cl, err := cluster.New(eng, cluster.Config{Nodes: 2, MaxRetries: 2, NodeConfig: nc})
			if err != nil {
				t.Fatal(err)
			}
			c := NewCluster(NewSeussDistBackend(eng, cl))
			eng.Go("client", func(p *sim.Proc) { err = c.Invoke(p, workload.NOPSpec(0), "{}") })
			eng.Run()
			if tc.failures == 0 && err != nil || tc.failures == 1 && !errors.Is(err, core.ErrUCCrashed) {
				t.Fatalf("err = %v with %d failures expected", err, tc.failures)
			}
			if c.Requests() != 1 || c.Failures() != tc.failures {
				t.Errorf("platform requests=%d failures=%d, want 1 and %d", c.Requests(), c.Failures(), tc.failures)
			}
			var crashes, deployed int64
			for _, m := range cl.Members() {
				st := m.Node.Stats()
				crashes += st.UCCrashes
				deployed += st.UCsDeployed
			}
			if got := cl.Stats().Retries; got != tc.retries || crashes != tc.retries+tc.failures || deployed != tc.deploy {
				t.Errorf("cluster retries=%d node crashes=%d deploys=%d, want %d, %d, %d",
					got, crashes, deployed, tc.retries, tc.retries+tc.failures, tc.deploy)
			}
		})
	}
}
