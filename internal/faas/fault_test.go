package faas

import (
	"errors"
	"testing"
	"time"

	"seuss/internal/core"
	"seuss/internal/fault"
	"seuss/internal/metrics"
	"seuss/internal/sim"
	"seuss/internal/workload"
)

func newFaultyCluster(t *testing.T, eng *sim.Engine, sched map[fault.Point][]uint64) *Cluster {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Faults = fault.New(fault.Config{Schedule: sched})
	node, err := core.NewNode(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewCluster(eng, NewSeussBackend(node))
}

// TestPlatformRetryMasksContainedCrash: with a retry budget, an
// injected UC crash never reaches the client — the dispatcher backs
// off, re-submits, and the fresh deploy from the snapshot serves the
// activation.
func TestPlatformRetryMasksContainedCrash(t *testing.T) {
	eng := sim.NewEngine()
	c := newFaultyCluster(t, eng, map[fault.Point][]uint64{fault.PointUCCrash: {1}})
	c.Retry = RetryPolicy{Max: 2, Backoff: time.Millisecond}
	c.Metrics = metrics.NewRecorder()
	spec := workload.NOPSpec(0)
	var err error
	eng.Go("client", func(p *sim.Proc) { err = c.Invoke(p, spec, "{}") })
	eng.Run()
	if err != nil {
		t.Fatalf("retried activation still failed: %v", err)
	}
	if c.Retries() != 1 {
		t.Errorf("Retries = %d, want 1", c.Retries())
	}
	if c.Failures() != 0 {
		t.Errorf("Failures = %d, want 0 — the crash must be masked", c.Failures())
	}
	if got := c.Metrics.Counters(); got != c.ledger || c.Requests() != 1 {
		t.Errorf("recorder reads %v, the platform's ledger %v; want equal, one request", got, c.ledger)
	}
}

// TestPlatformNoRetryByDefault: the zero policy fails fast, surfacing
// the contained error to the caller.
func TestPlatformNoRetryByDefault(t *testing.T) {
	eng := sim.NewEngine()
	c := newFaultyCluster(t, eng, map[fault.Point][]uint64{fault.PointUCCrash: {1}})
	spec := workload.NOPSpec(0)
	var err error
	eng.Go("client", func(p *sim.Proc) { err = c.Invoke(p, spec, "{}") })
	eng.Run()
	if !errors.Is(err, core.ErrUCCrashed) {
		t.Fatalf("err = %v, want ErrUCCrashed", err)
	}
	if c.Failures() != 1 || c.Retries() != 0 {
		t.Errorf("failures=%d retries=%d, want 1 and 0", c.Failures(), c.Retries())
	}
}

// TestPlatformRetryAsyncActivation: the async path shares the retry
// machinery — the activation record completes successfully.
func TestPlatformRetryAsyncActivation(t *testing.T) {
	eng := sim.NewEngine()
	c := newFaultyCluster(t, eng, map[fault.Point][]uint64{fault.PointUCCrash: {1}})
	c.Retry = RetryPolicy{Max: 1, Backoff: time.Millisecond}
	spec := workload.NOPSpec(0)
	eng.Go("client", func(p *sim.Proc) {
		id := c.InvokeAsync(p, spec, "{}")
		act := c.WaitActivation(p, id)
		if act == nil || !act.Done {
			t.Error("activation never completed")
			return
		}
		if act.Err != nil {
			t.Errorf("async activation failed despite retry budget: %v", act.Err)
		}
	})
	eng.Run()
	if c.Retries() != 1 {
		t.Errorf("Retries = %d, want 1", c.Retries())
	}
}

// TestBackendDeadlineKillsRunawayGuest: the platform-level deadline is
// threaded through the backend into the interpreter's step budget; a
// spinning guest is killed and the platform records a failure instead
// of hanging the whole simulated node.
func TestBackendDeadlineKillsRunawayGuest(t *testing.T) {
	eng := sim.NewEngine()
	node, err := core.NewNode(eng, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	backend := NewSeussBackend(node)
	backend.Deadline = 2 * time.Millisecond
	c := NewCluster(eng, backend)
	spec := workload.Spec{
		Key:    "user/spin",
		Source: `function main(args) { while (true) { var x = 1; } }`,
	}
	var invokeErr error
	eng.Go("client", func(p *sim.Proc) { invokeErr = c.Invoke(p, spec, "{}") })
	eng.Run()
	if !errors.Is(invokeErr, core.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", invokeErr)
	}
	if !fault.IsContained(invokeErr) {
		t.Error("deadline kill not contained")
	}
	if node.IdleUCs() != 0 {
		t.Errorf("runaway UC cached as idle (idle=%d)", node.IdleUCs())
	}
}
