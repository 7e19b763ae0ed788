package cluster

// Accessors and hooks only tests use. The reachability census
// (TestNothingUnreferenced) keeps them out of the non-test build.

import "seuss/internal/sched"

// MemberStates reports every member's lifecycle state: runtime ground
// truth plus the heartbeat-driven belief in the scheduler view.
func (c *Cluster) MemberStates() []MemberInfo {
	out := make([]MemberInfo, len(c.members))
	for i, m := range c.members {
		out[i] = MemberInfo{
			ID: m.ID, Up: m.up, Partitioned: m.partitioned,
			State:  c.view.State(m.ID).String(),
			Missed: c.view.Missed(m.ID),
		}
	}
	return out
}

// Heal reconnects a partitioned member. Its RAM state survived, but
// its view entries may have been purged while it was believed dead, so
// it resyncs its manifest like a rejoining member. Returns false if
// the member is not partitioned.
func (c *Cluster) Heal(id int) bool {
	if id < 0 || id >= len(c.members) || !c.members[id].partitioned {
		return false
	}
	c.heal(c.members[id])
	return true
}

// Partition isolates member id: the node keeps running but is
// reachable by no one — heartbeats stop landing, placements skip it
// once suspected, in-flight responses are lost. Returns false if the
// member is down or already partitioned. (Test hook; the
// member-partition fault point drives the same path.)
func (c *Cluster) Partition(id int) bool {
	if id < 0 || id >= len(c.members) || !c.members[id].alive() {
		return false
	}
	c.partition(c.members[id])
	return true
}

// View returns the scheduler's shared state (safe for concurrent use).
func (c *Cluster) View() *sched.View { return c.view }

// MemberInfo is one member's lifecycle state: the ground truth the
// cluster runtime knows (Up, Partitioned) plus the heartbeat-driven
// belief recorded in the scheduler view (State, Missed).
type MemberInfo struct {
	ID          int
	Up          bool
	Partitioned bool
	// State is the view's liveness belief: "alive", "suspect", "dead".
	State string
	// Missed is the member's consecutive missed heartbeat rounds.
	Missed int
}
