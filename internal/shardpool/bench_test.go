package shardpool

import (
	"fmt"
	"runtime"
	"testing"

	"seuss/internal/mem"
)

// BenchmarkShardedThroughput measures wall-clock invocations/sec
// through the pool front door as the shard count grows. Keys are
// pre-warmed so the measured path is the hot path — the workload where
// the old single-lock node left all but one core idle. On a multicore
// host, throughput should scale with shards (the acceptance bar is
// >2× at 4 shards vs 1).
func BenchmarkShardedThroughput(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	const keys = 64
	for _, shards := range counts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			pool, err := New(testConfig(shards))
			if err != nil {
				b.Fatal(err)
			}
			defer pool.Close()
			for k := 0; k < keys; k++ {
				if _, err := pool.InvokeSync(fmt.Sprintf("bench/fn%d", k), nopSource, "{}"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				k := 0
				for pb.Next() {
					key := fmt.Sprintf("bench/fn%d", k%keys)
					if _, err := pool.InvokeSync(key, nopSource, "{}"); err != nil {
						b.Fatal(err)
					}
					k++
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "invokes/sec")
		})
	}
}

// TestPoolHotAllocationCeiling holds, in tier-1, the allocation count
// of a hot invocation through a one-shard pool's front door, as
// BenchmarkShardedThroughput/shards=1 loops it (key formatting
// included): 50 per invocation. Skipped under seusspoison, where freed
// frame numbers are never reused.
func TestPoolHotAllocationCeiling(t *testing.T) {
	if mem.PoisonEnabled {
		t.Skip("frame numbers are never reused in the seusspoison build")
	}
	pool := newTestPool(t, testConfig(1))
	const keys = 64
	for k := 0; k < keys; k++ {
		if _, err := pool.InvokeSync(fmt.Sprintf("bench/fn%d", k), nopSource, "{}"); err != nil {
			t.Fatal(err)
		}
	}
	k := 0
	got := testing.AllocsPerRun(200, func() {
		if _, err := pool.InvokeSync(fmt.Sprintf("bench/fn%d", k%keys), nopSource, "{}"); err != nil {
			t.Fatal(err)
		}
		k++
	})
	if got > 50 {
		t.Errorf("hot invocation through the pool: %v allocations, ceiling 50", got)
	}
}
