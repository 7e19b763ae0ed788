package cluster

import (
	"seuss/internal/sched"
	"testing"

	"seuss/internal/core"
	"seuss/internal/sim"
)

// randSource surfaces the guest RNG stream in invocation output.
const randSource = `
function main(args) {
	return {a: Math.random(), b: Math.random()};
}
`

// TestFabricFetchClonesDivergeEntropy: a lineage replicated to a second
// member over the snapshot fabric deploys clones there from the SAME
// byte-identical layers the origin holds — and they still diverge. The
// assertion is pairwise: across the cold start, the replication burst,
// and one direct invocation per holding member, no two invocations ever
// observe the same RNG stream. Under the stale-seed bug this fails: two
// fresh deploys from one snapshot replay identical streams.
func TestFabricFetchClonesDivergeEntropy(t *testing.T) {
	c, eng := newCluster(t, Config{Nodes: 2, Placer: &sched.LocalityPlacer{Replicate: true}, SnapDir: t.TempDir()})
	req := core.Request{Key: "acct/rand", Source: randSource, Args: "{}"}

	var outputs []string
	res, _ := invoke(t, c, eng, req)
	outputs = append(outputs, res.Output)

	// Replication burst: overload the holder until the fabric fetches
	// the lineage to the second member.
	const burst = 8
	for i := 0; i < burst; i++ {
		eng.Go("client", func(p *sim.Proc) {
			r, _, err := c.Invoke(p, req)
			if err != nil {
				t.Error(err)
				return
			}
			outputs = append(outputs, r.Output)
		})
	}
	eng.Run()
	if c.Stats().Fetches == 0 {
		t.Fatal("overload did not trigger a fabric fetch")
	}
	holders := c.Holders("acct/rand")
	if len(holders) < 2 {
		t.Fatalf("holders = %v, want the lineage on both members", holders)
	}

	// One direct invocation per holding member: each serves from its own
	// copy of the same snapshot.
	for _, id := range holders {
		n := c.Members()[id].Node
		eng.Go("direct", func(p *sim.Proc) {
			r, err := n.Invoke(p, req)
			if err != nil {
				t.Error(err)
				return
			}
			outputs = append(outputs, r.Output)
		})
		eng.Run()
	}

	seen := make(map[string]bool, len(outputs))
	for i, out := range outputs {
		if seen[out] {
			t.Errorf("invocation %d replayed an earlier RNG stream: %s", i, out)
		}
		seen[out] = true
	}
}
