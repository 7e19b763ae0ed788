package trace

// Accessors and hooks only tests use. The reachability census
// (TestNothingUnreferenced) keeps them out of the non-test build.

import (
	"fmt"
	"strings"
	"time"
)

// KindDeploy is a kind no component emits; the tests use it as a sample.
const KindDeploy Kind = "deploy"

// Summary renders a one-line-per-kind count summary, with drop
// accounting appended when any event was discarded.
func (t *Tracer) Summary() string {
	counts := map[Kind]int{}
	var order []Kind
	for _, ev := range t.Events() {
		if counts[ev.Kind] == 0 {
			order = append(order, ev.Kind)
		}
		counts[ev.Kind]++
	}
	var sb strings.Builder
	for _, k := range order {
		fmt.Fprintf(&sb, "%s=%d ", k, counts[k])
	}
	if d := t.Dropped(); d > 0 {
		fmt.Fprintf(&sb, "dropped=%d ", d)
	}
	return strings.TrimSpace(sb.String())
}

// Span records a span event. Safe on a nil tracer.
func (t *Tracer) Span(kind Kind, key, path string, at, dur time.Duration) {
	t.Record(Event{At: at, Dur: dur, Kind: kind, Key: key, Path: path})
}
