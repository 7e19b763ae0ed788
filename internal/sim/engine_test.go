package sim

import (
	"testing"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.after(3*time.Millisecond, func() { got = append(got, 3) })
	e.after(1*time.Millisecond, func() { got = append(got, 1) })
	e.after(2*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Time(3*time.Millisecond) {
		t.Errorf("Now = %v, want 3ms", e.Now())
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.after(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie-break order = %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []string
	e.after(time.Millisecond, func() {
		fired = append(fired, "outer")
		e.after(time.Millisecond, func() { fired = append(fired, "inner") })
	})
	e.Run()
	if len(fired) != 2 || fired[1] != "inner" {
		t.Fatalf("fired = %v", fired)
	}
	if e.Now() != Time(2*time.Millisecond) {
		t.Errorf("Now = %v, want 2ms", e.Now())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.after(time.Second, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(Time(time.Millisecond), func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var count int
	for i := 1; i <= 10; i++ {
		e.after(time.Duration(i)*time.Second, func() { count++ })
	}
	e.RunUntil(Time(5 * time.Second))
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if e.Now() != Time(5*time.Second) {
		t.Errorf("Now = %v, want 5s", e.Now())
	}
	if e.Pending() != 5 {
		t.Errorf("Pending = %d, want 5", e.Pending())
	}
}

func TestRunUntilAdvancesClockWithNoEvents(t *testing.T) {
	e := NewEngine()
	e.RunUntil(Time(time.Hour))
	if e.Now() != Time(time.Hour) {
		t.Errorf("Now = %v, want 1h", e.Now())
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Millisecond)
		wake = p.Now()
	})
	e.Run()
	if wake != Time(42*time.Millisecond) {
		t.Errorf("woke at %v, want 42ms", wake)
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.Go("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * time.Millisecond)
			trace = append(trace, p.Now())
		}
	})
	e.Run()
	want := []Time{Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(30 * time.Millisecond)}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(time.Millisecond)
					log = append(log, name)
				}
			})
		}
		e.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestQueueBlockingGet(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e)
	var got interface{}
	var at Time
	e.Go("consumer", func(p *Proc) {
		got, _ = q.Get(p)
		at = p.Now()
	})
	e.Go("producer", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		q.Put("hello")
	})
	e.Run()
	if got != "hello" {
		t.Errorf("got %v", got)
	}
	if at != Time(5*time.Millisecond) {
		t.Errorf("consumed at %v, want 5ms", at)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e)
	for i := 0; i < 5; i++ {
		q.Put(i)
	}
	var got []int
	e.Go("c", func(p *Proc) {
		for i := 0; i < 5; i++ {
			v, _ := q.Get(p)
			got = append(got, v.(int))
		}
	})
	e.Run()
	for i := 0; i < 5; i++ {
		if got[i] != i {
			t.Fatalf("got %v", got)
		}
	}
}

func TestQueuePutFront(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e)
	q.Put(1)
	q.PutFront(0)
	v, _ := q.TryGet()
	if v != 0 {
		t.Errorf("head = %v, want 0", v)
	}
}

func TestQueueClose(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e)
	var okAfterClose bool = true
	e.Go("c", func(p *Proc) {
		_, okAfterClose = q.Get(p)
	})
	e.Go("closer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.Close()
	})
	e.Run()
	if okAfterClose {
		t.Error("Get on closed empty queue returned ok=true")
	}
}

func TestQueueCloseDrainsItemsFirst(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e)
	q.Put("x")
	q.Close()
	var v interface{}
	var ok bool
	e.Go("c", func(p *Proc) { v, ok = q.Get(p) })
	e.Run()
	if !ok || v != "x" {
		t.Errorf("Get = %v, %v; want x, true", v, ok)
	}
}

func TestResourceLimitsConcurrency(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		e.Go("worker", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	// With capacity 2 and 4 jobs of 10ms: two finish at 10ms, two at 20ms.
	if len(finish) != 4 {
		t.Fatalf("finish = %v", finish)
	}
	if finish[0] != Time(10*time.Millisecond) || finish[3] != Time(20*time.Millisecond) {
		t.Errorf("finish times = %v", finish)
	}
	if r.MaxInUse != 2 {
		t.Errorf("MaxInUse = %d, want 2", r.MaxInUse)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	if !r.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if r.TryAcquire() {
		t.Fatal("second TryAcquire succeeded at capacity")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after Release failed")
	}
}

func TestResourceReleaseWithoutAcquirePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.Release()
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	e.Go("b", func(p *Proc) {
		p.Sleep(time.Millisecond)
		if s.Waiters() != 3 {
			t.Errorf("Waiters = %d, want 3", s.Waiters())
		}
		s.Broadcast()
	})
	e.Run()
	if woken != 3 {
		t.Errorf("woken = %d, want 3", woken)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Intn(1000) != b.Intn(1000) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGJitterBounds(t *testing.T) {
	g := NewRNG(1)
	base := 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		d := g.Jitter(base, 0.1)
		if d < 90*time.Millisecond || d > 110*time.Millisecond {
			t.Fatalf("jitter out of bounds: %v", d)
		}
	}
	if g.Jitter(base, 0) != base {
		t.Error("zero jitter changed duration")
	}
}

func TestTimeHelpers(t *testing.T) {
	t0 := Time(time.Second)
	if t0.Add(time.Second) != Time(2*time.Second) {
		t.Error("Add")
	}
	if t0.Sub(Time(500*time.Millisecond)) != 500*time.Millisecond {
		t.Error("Sub")
	}
	if t0.Seconds() != 1 {
		t.Error("Seconds")
	}
}

func TestSignalWaitTimeoutExpires(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var signaled bool
	var at Time
	e.Go("w", func(p *Proc) {
		signaled = s.WaitTimeout(p, 25*time.Millisecond)
		at = p.Now()
	})
	e.Run()
	if signaled {
		t.Error("timeout reported as signal")
	}
	if at != Time(25*time.Millisecond) {
		t.Errorf("woke at %v", at)
	}
	if s.Waiters() != 0 {
		t.Errorf("stale waiter left: %d", s.Waiters())
	}
}

func TestSignalWaitTimeoutSignaled(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var signaled bool
	var at Time
	e.Go("w", func(p *Proc) {
		signaled = s.WaitTimeout(p, time.Second)
		at = p.Now()
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		s.Broadcast()
	})
	e.Run()
	if !signaled {
		t.Error("broadcast reported as timeout")
	}
	if at != Time(5*time.Millisecond) {
		t.Errorf("woke at %v", at)
	}
}

func TestSignalMixedWaiters(t *testing.T) {
	// One plain waiter and one timed waiter: the broadcast wakes both;
	// the timed waiter's later timeout event must be a no-op.
	e := NewEngine()
	s := NewSignal(e)
	woken := 0
	e.Go("plain", func(p *Proc) {
		s.Wait(p)
		woken++
	})
	e.Go("timed", func(p *Proc) {
		if s.WaitTimeout(p, time.Minute) {
			woken++
		}
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s.Broadcast()
	})
	e.Run()
	if woken != 2 {
		t.Errorf("woken = %d", woken)
	}
	if e.Now() < Time(time.Minute) {
		t.Errorf("pending timeout event not drained: clock %v", e.Now())
	}
}

func TestSignalRepeatedWaitTimeoutRounds(t *testing.T) {
	// A process can wait in rounds; each round gets its own timeout.
	e := NewEngine()
	s := NewSignal(e)
	rounds := 0
	e.Go("w", func(p *Proc) {
		for i := 0; i < 3; i++ {
			s.WaitTimeout(p, 10*time.Millisecond)
			rounds++
		}
	})
	e.Run()
	if rounds != 3 {
		t.Errorf("rounds = %d", rounds)
	}
	if e.Now() != Time(30*time.Millisecond) {
		t.Errorf("clock = %v", e.Now())
	}
}

func TestLiveProcsDrainToZero(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) { p.Sleep(time.Millisecond) })
	}
	e.Run()
	if e.LiveProcs() != 0 {
		t.Errorf("live procs after drain = %d", e.LiveProcs())
	}
}

func TestLiveProcsCountsBlocked(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e)
	e.Go("server", func(p *Proc) { q.Get(p) }) // blocks forever
	e.Run()
	if e.LiveProcs() != 1 {
		t.Errorf("live procs = %d, want the blocked server", e.LiveProcs())
	}
}
