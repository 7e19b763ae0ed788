// The lifecycle reaper: the sim-clock loop that turns a Config.Policy
// into state transitions. Each PolicyTick walks three stages —
//
//  1. idle-UC expiry: idle UCs past their keep-alive window are
//     destroyed (their function snapshot still serves warm starts);
//  2. scale-to-zero: lineages whose snapshot window also lapsed are
//     demoted to the disk tier and freed from RAM — the next hit
//     lukewarm-restores;
//  3. prewarm: lineages the policy predicted a recurrence for are
//     promoted back from the tier just ahead of the predicted arrival.
//
// The reaper does not self-schedule: sim.Engine.Run drains ALL events,
// so a self-rescheduling proc would never terminate. Owners drive it —
// experiments via eng.At ticks, shardpool via a `tick` control
// message, seuss-node via a wall-clock ticker mapped onto the virtual
// clock.
package core

import (
	"fmt"
	"sort"
	"time"

	"seuss/internal/fault"
	"seuss/internal/metrics"
	"seuss/internal/policy"
	"seuss/internal/sim"
	"seuss/internal/trace"
)

// TickStats summarizes one reaper pass.
type TickStats struct {
	// ExpiredUCs counts idle UCs destroyed by keep-alive expiry.
	ExpiredUCs int
	// DemotedLineages counts lineages scaled to zero (demoted to the
	// disk tier, or destroyed when no tier is attached).
	DemotedLineages int
	// Prewarmed counts lineages promoted back by the prewarm stage.
	Prewarmed int
}

// Add accumulates o into ts (pool aggregation).
func (ts *TickStats) Add(o TickStats) {
	ts.ExpiredUCs += o.ExpiredUCs
	ts.DemotedLineages += o.DemotedLineages
	ts.Prewarmed += o.Prewarmed
}

// PolicyTick runs one reaper pass at the current virtual instant.
// No-op without a configured policy. Must run on the node's owner
// goroutine, like every node method.
func (n *Node) PolicyTick(p *sim.Proc) TickStats {
	var ts TickStats
	pol := n.cfg.Policy
	if pol == nil {
		return ts
	}
	now := time.Duration(n.eng.Now())

	// Fault point: the policy misjudges this tick — keep-alive windows
	// collapse to zero (early expiry) and the prewarm stage promotes
	// one lineage nothing predicted a recurrence for. Both are safe by
	// construction: expired state lukewarm-restores on its next hit, a
	// useless prewarm only occupies RAM until it expires again.
	misfire := n.cfg.Faults.Fire(fault.PointPolicyMisfire)
	if misfire {
		n.count(metrics.CtrFaultsInjected, 1)
		n.eventAt(now, trace.KindFault, 0, "", "policy-misfire: zero keep-alive this tick; one unpredicted prewarm")
	}

	n.expireIdleUCs(p, pol, now, misfire, &ts)
	n.scaleToZero(p, pol, now, misfire, &ts)
	n.runPrewarms(p, now, misfire, &ts)
	return ts
}

// expireIdleUCs destroys idle UCs whose keep-alive window lapsed.
// Keys are walked in sorted order so the destruction sequence (and its
// trace) is deterministic.
func (n *Node) expireIdleUCs(p *sim.Proc, pol policy.Policy, now time.Duration, misfire bool, ts *TickStats) {
	keys := make([]string, 0, len(n.idle))
	for key := range n.idle {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		ka := pol.KeepAlive(key, now)
		if misfire {
			ka = 0
		}
		if ka < 0 {
			continue // pinned
		}
		list := n.idle[key]
		kept := list[:0]
		for _, entry := range list {
			if now-time.Duration(entry.last) < ka {
				kept = append(kept, entry)
				continue
			}
			entry.mu.bind(p)
			n.destroyUC(entry.mu)
			n.idleCount--
			ts.ExpiredUCs++
			n.count(metrics.CtrPolicyExpirations, 1)
			n.eventAt(now, trace.KindReclaim, 0, key, fmt.Sprintf("keep-alive %v expired", ka))
		}
		if len(kept) == 0 {
			delete(n.idle, key)
		} else {
			n.idle[key] = kept
		}
	}
}

// scaleToZero demotes lineages whose snapshot keep-alive window lapsed
// and no live state remains: the encoded diff goes to the disk tier,
// the RAM copy is deleted, and — if the policy predicts a recurrence —
// a prewarm is scheduled.
func (n *Node) scaleToZero(p *sim.Proc, pol policy.Policy, now time.Duration, misfire bool, ts *TickStats) {
	for _, key := range n.SnapshotKeys() {
		if len(n.idle[key]) > 0 {
			continue // live idle UCs outrank the snapshot window
		}
		entry := n.fnSnaps[key]
		ska := pol.SnapshotKeepAlive(key, now)
		if misfire {
			ska = 0
		}
		if ska < 0 {
			continue // pinned
		}
		if now-time.Duration(entry.last) < ska {
			continue
		}
		if entry.snap.ActiveUCs() > 0 || entry.snap.Children() > 0 {
			continue // an in-flight invocation or a derived snapshot depends on it
		}
		// Demote-before-delete. With a tier attached, a failed demote
		// keeps the lineage resident (never lose the only copy); with
		// no tier, expiry degrades to plain destruction — the policy
		// said scale to zero, and the next hit rebuilds cold.
		if !n.demoteSnapshot(p, entry.snap) && n.cfg.SnapStore != nil {
			continue
		}
		if err := entry.snap.Delete(); err != nil {
			continue
		}
		n.uncacheSnapshot(entry)
		ts.DemotedLineages++
		n.count(metrics.CtrPolicyExpirations, 1)
		n.eventAt(now, trace.KindEvict, 0, key, fmt.Sprintf("scale-to-zero after %v idle", ska))
		if n.cfg.SnapStore != nil {
			// Only arm predictions that are still ahead of the clock: a
			// stale instant here means the key stopped recurring (the
			// hold released and the lineage is being retired) — re-arming
			// it would promote/demote the dead key forever.
			if at, ok := pol.PrewarmAt(key, now); ok && at > now {
				n.prewarmDue[key] = at
			}
		}
	}
}

// runPrewarms promotes every lineage whose predicted recurrence is due.
// Under a misfire it additionally promotes one lineage with no due
// prediction at all — the "prewarm fires for a key with no recurrence"
// half of the fault point.
func (n *Node) runPrewarms(p *sim.Proc, now time.Duration, misfire bool, ts *TickStats) {
	if n.cfg.SnapStore == nil {
		return
	}
	due := make([]string, 0, len(n.prewarmDue))
	for key, at := range n.prewarmDue {
		if at <= now {
			due = append(due, key)
		}
	}
	sort.Strings(due)
	for _, key := range due {
		delete(n.prewarmDue, key)
		n.prewarmLineage(p, now, key, false, ts)
	}
	if misfire {
		if key, ok := n.misfireTarget(); ok {
			n.prewarmLineage(p, now, key, true, ts)
		}
	}
}

// misfireTarget picks the most recently demoted non-resident lineage —
// the one an over-eager predictor would plausibly pull back.
func (n *Node) misfireTarget() (string, bool) {
	for _, name := range n.cfg.SnapStore.KeysMRU() {
		key := trimFnPrefix(name)
		if key == "" {
			continue
		}
		if _, resident := n.fnSnaps[key]; !resident {
			return key, true
		}
	}
	return "", false
}

// prewarmLineage promotes one lineage from the tier and accounts the
// outcome: promoted, miss (tier no longer holds it), or misfire (the
// injected unpredicted promotion).
func (n *Node) prewarmLineage(p *sim.Proc, now time.Duration, key string, misfire bool, ts *TickStats) {
	name := "fn/" + key
	if n.residentSnapshot(name) != nil {
		return // an invocation already brought it back; nothing to do
	}
	if _, err := n.promote(p, name, 0, metrics.CtrTierPromotionsPrewarm); err != nil {
		n.count(metrics.CtrPolicyPrewarmsMiss, 1)
		n.eventAt(now, trace.KindFault, 0, key, "prewarm miss: "+err.Error())
		return
	}
	ts.Prewarmed++
	if misfire {
		n.count(metrics.CtrPolicyPrewarmsMisfire, 1)
	} else {
		n.count(metrics.CtrPolicyPrewarmsPromoted, 1)
	}
}

// trimFnPrefix returns the function key of a "fn/..." tier name, or "".
func trimFnPrefix(name string) string {
	const pfx = "fn/"
	if len(name) > len(pfx) && name[:len(pfx)] == pfx {
		return name[len(pfx):]
	}
	return ""
}
