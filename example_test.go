package seuss_test

import (
	"fmt"
	"log"
	"time"

	"seuss"
)

// The basic flow: boot a node, invoke a function, watch the path
// progress from cold to hot as the node caches state.
func Example() {
	sim := seuss.New()
	node, err := sim.NewNode(seuss.NodeDefaults())
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		inv, err := node.InvokeSync("docs/hello",
			`function main(args) { return {n: args.n * 2}; }`,
			`{"n": 21}`)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(inv.Path, inv.Output)
	}
	// Output:
	// cold {"ok":true,"result":{"n":42},"seq":1}
	// hot {"ok":true,"result":{"n":42},"seq":2}
	// hot {"ok":true,"result":{"n":42},"seq":3}
}

// Concurrent invocations run as simulated tasks; the simulation's
// virtual clock orders everything deterministically.
func ExampleSimulation_Spawn() {
	sim := seuss.New()
	node, err := sim.NewNode(seuss.NodeDefaults())
	if err != nil {
		log.Fatal(err)
	}
	// Prime the cache with one cold invocation.
	if _, err := node.InvokeSync("docs/fn", `function main(args) { return {}; }`, `{}`); err != nil {
		log.Fatal(err)
	}
	results := make([]string, 2)
	for i := 0; i < 2; i++ {
		i := i
		sim.Spawn("client", func(t *seuss.Task) {
			inv, err := node.Invoke(t, "docs/fn",
				`function main(args) { return {}; }`, `{}`)
			if err != nil {
				log.Fatal(err)
			}
			results[i] = inv.Path
		})
	}
	sim.Run()
	// One request reuses the cached idle UC (hot); the concurrent one
	// cannot, and deploys a fresh UC from the function snapshot (warm).
	fmt.Println(results[0], results[1])
	// Output:
	// hot warm
}

// The load-generation benchmark of the paper's §7, in miniature.
func ExampleCluster_RunTrial() {
	sim := seuss.New()
	cluster, err := sim.NewSeussCluster(seuss.NodeDefaults())
	if err != nil {
		log.Fatal(err)
	}
	fns := []seuss.Function{seuss.NOP(0), seuss.NOP(1)}
	res := cluster.RunTrial(seuss.Trial{N: 50, Fns: fns, C: 4, Seed: 1})
	fmt.Println(res.Completed, res.Errors)
	// Output:
	// 50 0
}

// A task sleeps in virtual time: no wall-clock time passes, and the
// simulation's clock reads what the task slept.
func ExampleTask_Sleep() {
	sim := seuss.New()
	sim.Spawn("sleeper", func(t *seuss.Task) {
		t.Sleep(250 * time.Millisecond)
		fmt.Println("task woke at", t.Now())
	})
	sim.Run()
	fmt.Println("clock reads", sim.Clock())
	// Output:
	// task woke at 250ms
	// clock reads 250ms
}
