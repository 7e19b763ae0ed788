package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Event{Kind: KindDeploy})
	tr.Span(KindInvoke, "k", "cold", 0, time.Millisecond)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Error("nil tracer recorded")
	}
}

func TestRecordAndQuery(t *testing.T) {
	tr := New(0)
	tr.Span(KindInvoke, "fn", "cold", 10*time.Millisecond, 7*time.Millisecond)
	tr.Record(Event{At: 20 * time.Millisecond, Kind: KindReclaim, Key: "fn2"})
	tr.Span(KindInvoke, "fn", "hot", 30*time.Millisecond, time.Millisecond)

	if tr.Len() != 3 {
		t.Fatalf("len = %d", tr.Len())
	}
	invokes := tr.ByKind(KindInvoke)
	if len(invokes) != 2 || invokes[0].Path != "cold" || invokes[1].Path != "hot" {
		t.Errorf("invokes = %+v", invokes)
	}
	if got := tr.Summary(); !strings.Contains(got, "invoke=2") || !strings.Contains(got, "reclaim=1") {
		t.Errorf("summary = %q", got)
	}
}

func TestMaxEventsCap(t *testing.T) {
	tr := New(2)
	for i := 0; i < 5; i++ {
		tr.Record(Event{Kind: KindDeploy})
	}
	if tr.Len() != 2 {
		t.Errorf("len = %d, want capped 2", tr.Len())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := New(0)
	tr.Span(KindInvoke, "fn", "cold", time.Millisecond, 7*time.Millisecond)
	tr.Record(Event{At: 2 * time.Millisecond, Kind: KindReclaim})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
		OtherData   map[string]string        `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	events := doc.TraceEvents
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	if doc.OtherData["events"] != "2" || doc.OtherData["dropped"] != "0" {
		t.Errorf("otherData = %v", doc.OtherData)
	}
	if events[0]["ph"] != "X" || events[0]["dur"].(float64) != 7000 {
		t.Errorf("span = %v", events[0])
	}
	if events[1]["ph"] != "i" {
		t.Errorf("instant = %v", events[1])
	}
	// Distinct kinds land in distinct lanes.
	if events[0]["tid"] == events[1]["tid"] {
		t.Error("lanes collided")
	}
}

func TestChildMergesIntoParent(t *testing.T) {
	parent := New(0)
	parent.Record(Event{At: 5 * time.Millisecond, Kind: KindReclaim})
	c1 := parent.Child()
	c2 := parent.Child()
	c1.Span(KindInvoke, "a", "cold", 1*time.Millisecond, time.Millisecond)
	c2.Span(KindInvoke, "b", "hot", 3*time.Millisecond, time.Millisecond)
	c1.Record(Event{At: 9 * time.Millisecond, Kind: KindEvict, Key: "a"})

	if parent.Len() != 4 {
		t.Fatalf("parent.Len() = %d, want 4", parent.Len())
	}
	evs := parent.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events()) = %d, want 4", len(evs))
	}
	// Merged view is ordered by virtual timestamp across children.
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("events out of timestamp order: %v after %v", evs[i].At, evs[i-1].At)
		}
	}
	if evs[0].Key != "a" || evs[1].Key != "b" || evs[3].Kind != KindEvict {
		t.Errorf("merged order wrong: %+v", evs)
	}
	if got := len(parent.ByKind(KindInvoke)); got != 2 {
		t.Errorf("ByKind(invoke) across children = %d, want 2", got)
	}

	// Children are independent leaves: each sees only its own events.
	if c1.Len() != 2 || c2.Len() != 1 {
		t.Errorf("child lens = %d, %d; want 2, 1", c1.Len(), c2.Len())
	}
}

func TestChildOfNilTracer(t *testing.T) {
	var tr *Tracer
	c := tr.Child()
	if c != nil {
		t.Fatal("nil tracer returned non-nil child")
	}
	c.Record(Event{Kind: KindDeploy}) // must not panic
	if c.Len() != 0 {
		t.Error("nil child recorded")
	}
}

func TestChildInheritsCap(t *testing.T) {
	parent := New(2)
	c := parent.Child()
	for i := 0; i < 5; i++ {
		c.Record(Event{At: time.Duration(i), Kind: KindInvoke})
	}
	if c.Len() != 2 {
		t.Errorf("child retained %d events, want cap 2", c.Len())
	}
}

func TestDroppedAccounting(t *testing.T) {
	tr := New(3)
	for i := 0; i < 10; i++ {
		tr.Record(Event{At: time.Duration(i), Kind: KindDeploy})
	}
	if tr.Len() != 3 {
		t.Errorf("Len = %d, want 3", tr.Len())
	}
	if tr.Dropped() != 7 {
		t.Errorf("Dropped = %d, want 7", tr.Dropped())
	}
	if got := tr.Summary(); !strings.Contains(got, "dropped=7") {
		t.Errorf("summary lacks drop accounting: %q", got)
	}
	// Unlimited tracers never drop and never report it.
	unl := New(0)
	unl.Record(Event{Kind: KindDeploy})
	if unl.Dropped() != 0 || strings.Contains(unl.Summary(), "dropped") {
		t.Errorf("unlimited tracer reported drops: %q", unl.Summary())
	}
}

func TestBudgetIsPoolWide(t *testing.T) {
	// The New(max) contract: max events across the whole tree, not
	// max per buffer. With 4 children and max=10, parent+children
	// together must retain exactly 10 and drop the rest.
	const max = 10
	parent := New(max)
	children := make([]*Tracer, 4)
	for i := range children {
		children[i] = parent.Child()
	}
	total := 0
	for round := 0; round < 5; round++ {
		parent.Record(Event{At: time.Duration(total), Kind: KindDeploy})
		total++
		for _, c := range children {
			c.Record(Event{At: time.Duration(total), Kind: KindInvoke})
			total++
		}
	}
	if parent.Len() != max {
		t.Errorf("tree retained %d events, want pool-wide cap %d", parent.Len(), max)
	}
	if got := parent.Dropped(); got != int64(total-max) {
		t.Errorf("Dropped = %d, want %d", got, total-max)
	}
}

func TestConcurrentRecordEventsDropped(t *testing.T) {
	// Hammer a capped tracer tree from many goroutines while readers
	// poll; meant to run under -race. Invariants: retained ≤ max, and
	// retained + dropped == total recorded once the dust settles.
	const (
		max        = 64
		writers    = 8
		perWriter  = 500
		totalElems = writers * perWriter
	)
	parent := New(max)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		tr := parent
		if w%2 == 1 {
			tr = parent.Child()
		}
		wg.Add(1)
		go func(tr *Tracer, w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Record(Event{At: time.Duration(w*perWriter + i), Kind: KindInvoke})
			}
		}(tr, w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if parent.Len() > max {
				t.Errorf("Len %d exceeded cap %d mid-run", parent.Len(), max)
				return
			}
			_ = parent.Events()
			_ = parent.Dropped()
		}
	}()
	wg.Wait()
	<-done
	if parent.Len() != max {
		t.Errorf("Len = %d, want %d", parent.Len(), max)
	}
	if got := parent.Len() + int(parent.Dropped()); got != totalElems {
		t.Errorf("Len+Dropped = %d, want %d", got, totalElems)
	}
}

func TestSubscribe(t *testing.T) {
	parent := New(0)
	ch, cancel := parent.Subscribe(16)
	c := parent.Child()
	parent.Record(Event{At: 1, Kind: KindDeploy})
	c.Record(Event{At: 2, Kind: KindInvoke, Key: "fn"})
	got := []Event{<-ch, <-ch}
	if got[0].Kind != KindDeploy || got[1].Key != "fn" {
		t.Errorf("subscription saw %+v", got)
	}
	cancel()
	if _, ok := <-ch; ok {
		t.Error("channel not closed after cancel")
	}
	cancel() // idempotent
	// Post-cancel records must not panic or deliver.
	parent.Record(Event{At: 3, Kind: KindEvict})
}

func TestSubscribeFullBufferDoesNotBlock(t *testing.T) {
	tr := New(0)
	_, cancel := tr.Subscribe(1)
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			tr.Record(Event{At: time.Duration(i), Kind: KindDeploy})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("recorder blocked on a full subscriber")
	}
	if tr.Len() != 10 {
		t.Errorf("Len = %d, want 10", tr.Len())
	}
}

func TestSubscribeNilTracer(t *testing.T) {
	var tr *Tracer
	ch, cancel := tr.Subscribe(4)
	if _, ok := <-ch; ok {
		t.Error("nil tracer subscription delivered an event")
	}
	cancel()
}

func TestForEachSortedMergesShards(t *testing.T) {
	parent := New(0)
	c1, c2 := parent.Child(), parent.Child()
	// Each shard's buffer is monotonic on its own clock; the merged
	// walk must interleave them globally sorted.
	c1.Record(Event{At: 1, Kind: KindInvoke})
	c1.Record(Event{At: 5, Kind: KindInvoke})
	c2.Record(Event{At: 2, Kind: KindInvoke})
	c2.Record(Event{At: 4, Kind: KindInvoke})
	parent.Record(Event{At: 3, Kind: KindReclaim})
	var ats []time.Duration
	parent.ForEachSorted(func(ev Event) bool {
		ats = append(ats, ev.At)
		return true
	})
	want := []time.Duration{1, 2, 3, 4, 5}
	if len(ats) != len(want) {
		t.Fatalf("visited %d events, want %d", len(ats), len(want))
	}
	for i := range want {
		if ats[i] != want[i] {
			t.Fatalf("order = %v, want %v", ats, want)
		}
	}
	// Early termination.
	n := 0
	parent.ForEachSorted(func(Event) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("early stop visited %d, want 2", n)
	}
}

func TestForEachSortedUnsortedBuffer(t *testing.T) {
	// A buffer recorded out of timestamp order (e.g. a manually driven
	// clock) still yields a globally sorted walk.
	tr := New(0)
	tr.Record(Event{At: 5, Kind: KindInvoke})
	tr.Record(Event{At: 1, Kind: KindInvoke})
	tr.Record(Event{At: 3, Kind: KindInvoke})
	var ats []time.Duration
	tr.ForEachSorted(func(ev Event) bool {
		ats = append(ats, ev.At)
		return true
	})
	for i := 1; i < len(ats); i++ {
		if ats[i] < ats[i-1] {
			t.Fatalf("unsorted walk: %v", ats)
		}
	}
}
