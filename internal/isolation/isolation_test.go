package isolation

import (
	"testing"
	"time"

	"seuss/internal/costs"
	"seuss/internal/netsim"
	"seuss/internal/sim"
)

func TestMemPool(t *testing.T) {
	m := NewMemPool(100)
	if !m.take(60) || !m.take(40) {
		t.Fatal("takes within budget failed")
	}
	if m.take(1) {
		t.Fatal("over-budget take succeeded")
	}
	m.give(50)
	if m.Used() != 50 || m.Available() != 50 {
		t.Errorf("used/avail = %d/%d", m.Used(), m.Available())
	}
	m.give(1000) // over-give clamps
	if m.Used() != 0 {
		t.Errorf("used = %d", m.Used())
	}
}

// createN creates n instances through a single simulated worker and
// returns elapsed virtual time.
func createN(t *testing.T, b *Backend, n int) (time.Duration, []*Instance) {
	t.Helper()
	eng := sim.NewEngine()
	var insts []*Instance
	eng.Go("creator", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			inst, err := b.Create(p)
			if err != nil {
				t.Errorf("create %d: %v", i, err)
				return
			}
			insts = append(insts, inst)
		}
	})
	eng.Run()
	return time.Duration(eng.Now()), insts
}

func TestProcessCreationRate(t *testing.T) {
	// Table 3: 45 processes/s across 16 cores ⇒ ≈350 ms each.
	m := NewMemPool(costs.NodeMemoryBytes)
	b := NewBackend(KindProcess, m, nil, sim.NewRNG(1))
	elapsed, _ := createN(t, b, 10)
	per := elapsed / 10
	if per < 300*time.Millisecond || per > 400*time.Millisecond {
		t.Errorf("per-process creation = %v", per)
	}
}

func TestProcessDensityMatchesTable3(t *testing.T) {
	m := NewMemPool(costs.NodeMemoryBytes)
	n := costs.NodeMemoryBytes / costs.ProcessIdleBytes
	if n < 4000 || n > 4600 {
		t.Errorf("process density = %d, paper ≈4200", n)
	}
	_ = m
}

func TestContainerCreationGrowsWithPopulation(t *testing.T) {
	// §7: 541 ms with no other containers, ≈1.5 s past 1000.
	m := NewMemPool(costs.NodeMemoryBytes)
	b := NewBackend(KindContainer, m, nil, sim.NewRNG(1))
	eng := sim.NewEngine()
	var first, later time.Duration
	eng.Go("seq", func(p *sim.Proc) {
		t0 := p.Now()
		if _, err := b.Create(p); err != nil {
			t.Error(err)
			return
		}
		first = time.Duration(p.Now() - t0)
		b.pop = 1000 // fast-forward the population
		t1 := p.Now()
		if _, err := b.Create(p); err != nil {
			t.Error(err)
			return
		}
		later = time.Duration(p.Now() - t1)
	})
	eng.Run()
	if first < 450*time.Millisecond || first > 650*time.Millisecond {
		t.Errorf("first container = %v, paper 541 ms", first)
	}
	if later < 1200*time.Millisecond || later > 1800*time.Millisecond {
		t.Errorf("container at pop 1000 = %v, paper ≈1.5 s", later)
	}
}

func TestContainerParallelContention(t *testing.T) {
	// Two properties from §7: (a) creation latency grows with the
	// number of concurrent creations; (b) sustained 16-way parallel
	// creation lands near Table 3's aggregate 5.3 containers/s.
	// The actual Table 3 experiment: deploy containers from 16 workers
	// until the node's memory saturates, then report the aggregate
	// rate and the density.
	m := NewMemPool(costs.NodeMemoryBytes)
	b := NewBackend(KindContainer, m, nil, sim.NewRNG(1))
	eng := sim.NewEngine()
	done := 0
	for i := 0; i < 16; i++ {
		eng.Go("par", func(p *sim.Proc) {
			for {
				if _, err := b.Create(p); err != nil {
					if err != ErrOutOfMemory {
						t.Error(err)
					}
					return
				}
				done++
			}
		})
	}
	eng.Run()
	if done < 2800 || done > 3400 {
		t.Fatalf("density = %d, Table 3 reports ≈3000", done)
	}
	rate := float64(done) / time.Duration(eng.Now()).Seconds()
	if rate < 4.2 || rate > 6.5 {
		t.Errorf("16-way fill rate = %.1f/s, Table 3 reports 5.3/s", rate)
	}

	// Contention property: a creation with 15 others in flight is
	// visibly slower than an uncontended one.
	b2 := NewBackend(KindContainer, NewMemPool(costs.NodeMemoryBytes), nil, sim.NewRNG(1))
	eng2 := sim.NewEngine()
	var solo, contended time.Duration
	eng2.Go("solo", func(p *sim.Proc) {
		t0 := p.Now()
		b2.Create(p)
		solo = time.Duration(p.Now() - t0)
	})
	eng2.Run()
	eng3 := sim.NewEngine()
	for i := 0; i < 16; i++ {
		last := i == 15
		eng3.Go("c", func(p *sim.Proc) {
			t0 := p.Now()
			b2.Create(p)
			if last {
				contended = time.Duration(p.Now() - t0)
			}
		})
	}
	eng3.Run()
	if contended <= solo {
		t.Errorf("no parallel contention: solo %v, 16-way %v", solo, contended)
	}
}

func TestContainerDensityMatchesTable3(t *testing.T) {
	n := costs.NodeMemoryBytes / costs.ContainerIdleBytes
	if n < 2800 || n > 3400 {
		t.Errorf("container density = %d, paper ≈3000", n)
	}
}

func TestMicroVMMatchesTable3(t *testing.T) {
	m := NewMemPool(costs.NodeMemoryBytes)
	b := NewBackend(KindMicroVM, m, nil, sim.NewRNG(1))
	elapsed, _ := createN(t, b, 4)
	per := elapsed / 4
	if per < 2800*time.Millisecond || per > 3500*time.Millisecond {
		t.Errorf("microVM creation = %v, paper >3 s", per)
	}
	n := costs.NodeMemoryBytes / costs.MicroVMIdleBytes
	if n < 400 || n > 520 {
		t.Errorf("microVM density = %d, paper ≈450", n)
	}
}

func TestCreateFailsAtBudget(t *testing.T) {
	m := NewMemPool(2 * costs.ProcessIdleBytes)
	b := NewBackend(KindProcess, m, nil, sim.NewRNG(1))
	eng := sim.NewEngine()
	var errAt3 error
	eng.Go("fill", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			if _, err := b.Create(p); err != nil {
				t.Errorf("create %d: %v", i, err)
			}
		}
		_, errAt3 = b.Create(p)
	})
	eng.Run()
	if errAt3 != ErrOutOfMemory {
		t.Errorf("err = %v", errAt3)
	}
	if b.Population() != 2 {
		t.Errorf("population = %d", b.Population())
	}
}

func TestDestroyReleasesMemoryAndBridge(t *testing.T) {
	m := NewMemPool(costs.NodeMemoryBytes)
	bridge := netsim.NewBridge(sim.NewRNG(1))
	b := NewBackend(KindContainer, m, bridge, sim.NewRNG(1))
	eng := sim.NewEngine()
	eng.Go("w", func(p *sim.Proc) {
		inst, err := b.Create(p)
		if err != nil {
			t.Error(err)
			return
		}
		if bridge.Endpoints() != 1 {
			t.Errorf("endpoints = %d", bridge.Endpoints())
		}
		b.Destroy(p, inst)
		if m.Used() != 0 || bridge.Endpoints() != 0 || b.Population() != 0 {
			t.Errorf("leak: mem=%d endpoints=%d pop=%d", m.Used(), bridge.Endpoints(), b.Population())
		}
		b.Destroy(p, inst) // idempotent
		if b.Destroyed != 1 {
			t.Errorf("destroyed = %d", b.Destroyed)
		}
		if err := b.Invoke(p, inst, 0); err == nil {
			t.Error("invoke on destroyed instance")
		}
	})
	eng.Run()
}

func TestInvokeTimesOutOnSaturatedBridge(t *testing.T) {
	m := NewMemPool(costs.NodeMemoryBytes << 4)
	bridge := netsim.NewBridge(sim.NewRNG(1))
	for i := 0; i < 3000; i++ {
		bridge.Attach()
	}
	b := NewBackend(KindContainer, m, bridge, sim.NewRNG(1))
	eng := sim.NewEngine()
	inst := &Instance{backend: b, foot: 1}
	timeouts := 0
	eng.Go("w", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if err := b.Invoke(p, inst, 0); err == ErrConnTimeout {
				timeouts++
			}
		}
	})
	eng.Run()
	if timeouts < 15 {
		t.Errorf("timeouts = %d/20 on a 3000-endpoint bridge", timeouts)
	}
}

func TestKindStrings(t *testing.T) {
	if KindProcess.String() != "process" || KindContainer.String() != "container" || KindMicroVM.String() != "microvm" {
		t.Error("kind names")
	}
}

func TestPrewarmAccountsLikeCreate(t *testing.T) {
	m := NewMemPool(costs.NodeMemoryBytes)
	bridge := netsim.NewBridge(sim.NewRNG(1))
	b := NewBackend(KindContainer, m, bridge, sim.NewRNG(1))
	inst, err := b.Prewarm()
	if err != nil {
		t.Fatal(err)
	}
	if b.Population() != 1 || bridge.Endpoints() != 1 || m.Used() != inst.Footprint() {
		t.Errorf("accounting: pop=%d endpoints=%d used=%d", b.Population(), bridge.Endpoints(), m.Used())
	}
	// Prewarm respects the budget.
	tiny := NewBackend(KindContainer, NewMemPool(1), nil, sim.NewRNG(1))
	if _, err := tiny.Prewarm(); err != ErrOutOfMemory {
		t.Errorf("err = %v", err)
	}
}
