package exp

import (
	"testing"

	"moca/internal/sim"
)

// TestEffectiveParallelism locks the over-subscription clamp: when both
// the run bound and the shard count default from the machine size, their
// product must stay at the core count — a 32-core box running 32 parallel
// simulations of 4 worker goroutines each (128 runnable goroutines) is
// exactly the CI-thrashing regression this guards against.
func TestEffectiveParallelism(t *testing.T) {
	cases := []struct {
		name                        string
		parallelism, shards, numCPU int
		want                        int
	}{
		{"default-serial", 0, 0, 8, 8},
		{"default-serial-one", 0, 1, 8, 8},
		{"default-divides-by-shards", 0, 4, 32, 8},
		{"default-rounds-down", 0, 3, 8, 2},
		{"default-floors-at-one", 0, 8, 4, 1},
		{"default-single-cpu", 0, 4, 1, 1},
		{"explicit-wins", 6, 4, 8, 6},
		{"explicit-oversubscribes-deliberately", 16, 8, 4, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := effectiveParallelism(tc.parallelism, tc.shards, tc.numCPU); got != tc.want {
				t.Errorf("effectiveParallelism(%d, %d, %d) = %d, want %d",
					tc.parallelism, tc.shards, tc.numCPU, got, tc.want)
			}
			// runs x shards must never exceed the machine unless the
			// caller explicitly asked for oversubscription.
			if tc.parallelism == 0 {
				shards := tc.shards
				if shards < 1 {
					shards = 1
				}
				got := effectiveParallelism(tc.parallelism, tc.shards, tc.numCPU)
				if got*shards > tc.numCPU && got > 1 {
					t.Errorf("default bound %d x %d shards = %d oversubscribes %d CPUs",
						got, shards, got*shards, tc.numCPU)
				}
			}
		})
	}
}

// TestRunnerShardsReachConfig proves Runner.Shards actually reaches the
// simulator's Config (TestResultCacheKeyCanonical separately proves it
// stays out of the cache key).
func TestRunnerShardsReachConfig(t *testing.T) {
	r := fastRunner()
	r.Shards = 4
	seen := -1
	swapNewSystem(t, func(cfg sim.Config, procs []sim.ProcSpec) (*sim.System, error) {
		seen = cfg.Shards
		return sim.New(cfg, procs)
	})
	if _, err := r.RunSingle(ddr3Def(), "mcf"); err != nil {
		t.Fatal(err)
	}
	if seen != 4 {
		t.Errorf("simulator constructed with Config.Shards = %d, want 4", seen)
	}
}
