// DR-SEUSS (§9 future work): a distributed, replicated global snapshot
// cache. Unikernel snapshots are read-only and every UC shares one
// network identity, so a snapshot captured on one node deploys on any
// node with the same base image. The cluster's directory makes a
// function cold at most once per *cluster*; under load, the stack
// layers a peer is missing are fetched from the holder's disk tier over
// the 10 GbE fabric (the shared runtime base dedupes and ships nothing)
// and the function becomes warm there too.
package main

import (
	"fmt"
	"log"
	"os"

	"seuss"
)

const fn = `
function main(args) {
	var total = 0;
	for (var i = 0; i < args.n; i++) { total += i; }
	return {sum: total};
}
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Replication travels through each member's disk tier.
	snapDir, err := os.MkdirTemp("", "seuss-distributed-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(snapDir)

	sim := seuss.New()
	dc, err := sim.NewDistCluster(seuss.DistConfig{Nodes: 3, Placer: &seuss.LocalityPlacer{Replicate: true}, SnapDir: snapDir})
	if err != nil {
		return err
	}
	fmt.Printf("cluster: %d nodes, replicating placement\n\n", dc.Nodes())

	// First invocation: cold, once, somewhere.
	inv, node, err := dc.InvokeSync("team/sum", fn, `{"n": 100}`)
	if err != nil {
		return err
	}
	fmt.Printf("request 1: node=%d path=%-4s latency=%8v %s\n", node, inv.Path, inv.Latency, inv.Output)

	// Sixteen concurrent requests: the holder overloads, the snapshot
	// replicates, and the function is served warm from multiple nodes.
	type outcome struct {
		node int
		path string
	}
	var outcomes []outcome
	var failed error
	for i := 0; i < 16; i++ {
		sim.Spawn("client", func(t *seuss.Task) {
			inv, node, err := dc.Invoke(t, "team/sum", fn, `{"n": 100}`)
			if err != nil {
				failed = err
				return
			}
			outcomes = append(outcomes, outcome{node, inv.Path})
		})
	}
	sim.Run()
	if failed != nil {
		return failed
	}

	perNode := map[int]int{}
	cold := 0
	for _, o := range outcomes {
		perNode[o.node]++
		if o.path == "cold" {
			cold++
		}
	}
	fmt.Printf("\n16 concurrent requests served by nodes: %v (cold paths: %d)\n", perNode, cold)

	st := dc.Stats()
	fmt.Printf("cluster stats: colds=%d fetches=%d fetched=%.1f KB deduped-layers=%d holders=%v\n",
		st.ClusterColds, st.Fetches, float64(st.FetchedBytes)/1e3, st.LayerDedups, dc.Holders("team/sum"))
	return nil
}
