package main

import (
	"testing"
)

// exactLayers are the count-type metrics: derived only from simulation
// results and sizes, they must repeat exactly for a seed.
var exactLayers = []string{
	"event.executed_per_kinstr", "sim.windows_per_kinstr", "cpu.ipc",
	"cpu.rob_stall_per_miss", "cache.llc_mpki", "cache.mshr_full_per_kinstr",
	"mem.requests_per_kinstr", "mem.row_hit_ratio", "mem.queue_ns_avg",
	"alloc.fallback_pages", "vm.tlb_hit_rate", "exp.memo_hit_ratio",
	"exp.disk_hit_ratio", "exp.simulated_runs", "wire.result_bytes_avg",
	"trace.bytes_per_item",
}

// reducedScale is a small instance of every workload: the sweeps keep the
// paper's full grids (the runner's figure entry points fix them) with short
// windows; serving uses two apps and two short rounds, with the config
// probes on (they fail, the same way in every run).
func reducedScale() scale {
	return scale{
		SingleMeasure: 20_000,
		MixMeasure:    10_000,
		SweepWindow:   30_000,
		SweepSetups:   1,
		ServeSetups:   1,
		MinPasses:     1,

		ServeMeasure:   10_000,
		ServeWindow:    30_000,
		ServeApps:      []string{"mcf", "gcc"},
		Rounds:         2,
		MemoPerRound:   10,
		DiskPerRound:   1,
		ColdPerRound:   3,
		TracePerRound:  1,
		ConfigPerRound: 1,
		TraceApp:       "mcf",
	}
}

// TestTracedRunsRepeatExactly runs each workload's traced instance twice
// with one seed. Observing must never change a result: the traced digest
// equals the untraced one, and every count-type per-layer metric, every
// digest and the failure count repeat exactly.
func TestTracedRunsRepeatExactly(t *testing.T) {
	workRoot = t.TempDir()
	for _, name := range []string{"single-sweep", "mix-sweep", "serve-mixed"} {
		t.Run(name, func(t *testing.T) {
			var first *outcome
			for i := 0; i < 2; i++ {
				out, err := workloads[name](reducedScale(), 7, 1, true)
				if err != nil {
					t.Fatal(err)
				}
				if out.digest == "" || out.tracedDigest != out.digest {
					t.Fatalf("run %d: traced digest %q, untraced %q", i, out.tracedDigest, out.digest)
				}
				for _, n := range exactLayers {
					if _, ok := out.layers[n]; !ok {
						t.Fatalf("run %d: no per-layer metric %s", i, n)
					}
				}
				if len(out.layers) != len(layerNames) {
					t.Errorf("run %d: %d per-layer metrics, want %d", i, len(out.layers), len(layerNames))
				}
				if first == nil {
					first = out
					continue
				}
				if out.digest != first.digest {
					t.Errorf("digest %s, first run %s", out.digest, first.digest)
				}
				if out.failed != first.failed || out.attempted != first.attempted {
					t.Errorf("failed %d of %d, first run %d of %d", out.failed, out.attempted, first.failed, first.attempted)
				}
				for _, n := range exactLayers {
					if a, b := out.layers[n].Value, first.layers[n].Value; a != b {
						t.Errorf("%s = %v, first run %v", n, a, b)
					}
				}
			}
		})
	}
}
