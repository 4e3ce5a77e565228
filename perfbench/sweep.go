package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"moca/internal/exp"
	"moca/internal/obs"
	"moca/internal/sim"
	"moca/internal/stats"
	"moca/internal/workload"
)

type sweepKind int

const (
	kindSingle sweepKind = iota // Figs. 8/9: each app alone
	kindMix                     // Figs. 10-13: 4-program mixes
)

func (sc scale) measure(kind sweepKind) uint64 {
	if kind == kindSingle {
		return sc.SingleMeasure
	}
	return sc.MixMeasure
}

// sweepApps lists the app groups of a sweep's grid: each Table III app
// alone, or each Figs. 10/11 mix's four apps.
func sweepApps(kind sweepKind) [][]string {
	var groups [][]string
	if kind == kindSingle {
		for _, app := range workload.Names() {
			groups = append(groups, []string{app})
		}
		return groups
	}
	for _, m := range workload.Mixes() {
		groups = append(groups, m.Apps)
	}
	return groups
}

// sweepSetup builds every system of the grid and runs it for a few
// thousand instructions, so a configuration that cannot run fails before
// timing starts.
func sweepSetup(kind sweepKind) error {
	for _, def := range exp.StandardSystems() {
		for _, apps := range sweepApps(kind) {
			var procs []sim.ProcSpec
			for _, app := range apps {
				spec, ok := workload.ByName(app)
				if !ok {
					return fmt.Errorf("unknown app %q", app)
				}
				procs = append(procs, sim.ProcSpec{App: spec, Input: workload.Ref})
			}
			cfg := sim.DefaultConfig(def.Name, def.Modules, def.Policy)
			cfg.Chains = def.Chains
			sys, err := sim.New(cfg, procs)
			if err == nil {
				_, err = sys.Run(0, smokeInstructions)
			}
			if err != nil {
				return fmt.Errorf("%v on %s: %w", apps, def.Name, err)
			}
		}
	}
	return nil
}

// smokeInstructions is the per-core length of a set-up smoke run.
const smokeInstructions = 5_000

// sweepRun is one whole sweep through a fresh runner.
type sweepRun struct {
	wall    time.Duration
	runMS   []float64 // per simulation: first to last progress tick
	instrMS []float64 // traced sweep only: per-app cold Instrument calls
	grids   []*stats.Grid
	keys    []string // the runner's result keys, sorted
	all     []*sim.Result
	digests map[string]string
	instr   uint64 // measured instructions over every result
	stats   exp.RunnerStats
	err     error
}

// sweepOnce runs one sweep through the runner's own figure entry points on
// a fresh exp.Runner: Fig8 and Fig9 for the single-core grid, Fig10 to
// Fig13 for the mixes. The first figure profiles every app one at a time
// and fans the grid out at the runner's default parallelism; the later
// ones read the memo. Each simulation's time is taken from the runner's
// progress hook. A traced sweep enables the runner's observability and
// first times a cold Instrument of every app, one at a time as the figure
// sweeps profile, so their own profiling calls then read the memo.
func sweepOnce(sc scale, kind sweepKind, traced bool) *sweepRun {
	r := exp.NewRunner()
	r.Measure = sc.measure(kind)
	r.FW.ProfileWindow = sc.SweepWindow
	out := &sweepRun{digests: map[string]string{}}

	type span struct {
		start time.Time
		ended bool
	}
	var mu sync.Mutex
	spans := map[string]*span{}
	r.OnProgress = func(key string, done, total uint64, _ func() *obs.Snapshot) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		s := spans[key]
		if s == nil {
			spans[key] = &span{start: now}
			return
		}
		if done == total && !s.ended {
			s.ended = true
			out.runMS = append(out.runMS, ms(now.Sub(s.start)))
		}
	}

	figs := []func() (*stats.Grid, error){r.Fig8, r.Fig9}
	if kind == kindMix {
		figs = []func() (*stats.Grid, error){r.Fig10, r.Fig11, r.Fig12, r.Fig13}
	}
	start := time.Now()
	if traced {
		r.Obs = obs.Options{Metrics: true}
		seen := map[string]bool{}
		for _, apps := range sweepApps(kind) {
			for _, app := range apps {
				if seen[app] {
					continue
				}
				seen[app] = true
				t0 := time.Now()
				if _, err := r.Instrument(app); err != nil && out.err == nil {
					out.err = err
				}
				out.instrMS = append(out.instrMS, ms(time.Since(t0)))
			}
		}
	}
	for _, fig := range figs {
		g, err := fig()
		if err != nil {
			out.err = err
			break
		}
		out.grids = append(out.grids, g)
	}
	out.wall = time.Since(start)
	out.stats = r.Stats()

	results := r.Results()
	for key := range results {
		out.keys = append(out.keys, key)
	}
	sort.Strings(out.keys)
	for _, key := range out.keys {
		res := results[key]
		d, err := resultDigest(res)
		if err != nil {
			if out.err == nil {
				out.err = fmt.Errorf("%s: digest: %w", key, err)
			}
			continue
		}
		out.digests[key] = d
		out.all = append(out.all, res)
		out.instr += res.TotalInstructions()
	}
	return out
}

// runSweep is the single-sweep and mix-sweep workload. The sweeps are the
// paper's fixed grids, so the seed changes nothing in them.
func runSweep(sc scale, kind sweepKind, seed int64, seconds float64, traced bool) (*outcome, error) {
	out := newOutcome()
	runs := len(exp.StandardSystems()) * len(sweepApps(kind))

	var setup []float64
	for i := 0; i < sc.SweepSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := sweepSetup(kind); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	// Measure whole sweeps while the next one fits in the time; a traced
	// run measures one untraced sweep to compare the traced one with.
	var sweeps []*sweepRun
	begin := time.Now()
	for {
		run := sweepOnce(sc, kind, false)
		sweeps = append(sweeps, run)
		if traced || (len(sweeps) >= sc.MinPasses && time.Since(begin).Seconds()+run.wall.Seconds() > seconds) {
			break
		}
	}
	var tracedRun *sweepRun
	if traced {
		prof, err := startProfile()
		if err != nil {
			return nil, err
		}
		tracedRun = sweepOnce(sc, kind, true)
		out.layers, err = prof.stop(tracedRun.instr)
		out.check(err == nil, "profile: %v", err)
		out.tracedDigest = combineDigests(tracedRun.digests)
	}

	// Correctness: every sweep succeeded, simulated every grid run once,
	// produced the same results as the first, and the headline rows point
	// the paper's way.
	first := sweeps[0]
	for n, run := range append(sweeps, tracedRun) {
		if run == nil {
			continue
		}
		out.check(run.err == nil, "sweep %d: %v", n, run.err)
		out.check(len(run.keys) == runs && len(run.runMS) == runs && run.stats.Simulated == uint64(runs),
			"sweep %d: %d results, %d timed and %d simulated runs, want %d", n, len(run.keys), len(run.runMS), run.stats.Simulated, runs)
		for _, key := range first.keys {
			out.check(run.digests[key] == first.digests[key], "sweep %d: %s result differs from sweep 0 (%s vs %s)",
				n, key, run.digests[key], first.digests[key])
		}
	}
	var head []headlineRow
	switch g := first.grids; {
	case kind == kindSingle && len(g) == 2:
		head = singleHeadline(g[0], g[1])
	case kind == kindMix && len(g) == 4:
		head = multiHeadline(g[0], g[1], g[2], g[3])
	default:
		out.check(false, "sweep 0 produced %d figure grids", len(g))
		return out, nil
	}
	for _, h := range head {
		out.check(h.measured >= h.min, "%s = %.1f%%, want >= %.0f%% (paper direction)", h.name, h.measured*100, h.min*100)
		out.note("headline: %-50s measured %5.1f%%  paper %3.0f%%", h.name, h.measured*100, h.paper*100)
	}
	for _, key := range first.keys {
		out.note("result %-28s %s", key, first.digests[key])
	}
	out.digest = combineDigests(first.digests)

	var walls, rates, reqs, lat []float64
	for _, run := range sweeps {
		s := run.wall.Seconds()
		walls = append(walls, s)
		rates = append(rates, float64(run.instr)/1e6/s)
		reqs = append(reqs, float64(runs)/s)
		lat = append(lat, run.runMS...)
	}
	p90, tailOK := tail(lat, 0.9)
	out.e2e["setup_s"] = metric{median(setup), "s"}
	out.e2e["wall_s"] = metric{median(walls), "s"}
	out.e2e["sim_minstr_per_s"] = metric{median(rates), "Minstr/s"}
	out.e2e["paper_gap_pp"] = metric{paperGapPP(head), "pp"}
	out.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	out.e2e["req_per_s"] = metric{median(reqs), "req/s"}
	out.e2e["cold_p50_ms"] = metric{median(lat), "ms"}
	out.extra["cold_p90_ms"] = metric{p90, "ms"}
	out.note("samples: %d sweeps x %d runs; %d set-ups; cold_p90 has >=10 samples beyond it: %v",
		len(sweeps), runs, len(setup), tailOK)
	out.note("sweep walls (s): %.3f", walls)
	out.note("set-ups (s): %.4f", setup)

	if traced {
		addModelCounts(out.layers, tracedRun.all, true)
		r := tracedRun.stats
		calls := float64(r.Simulated + r.MemoryHits + r.DiskHits)
		out.layers["core.instrument_ms"] = metric{median(tracedRun.instrMS), "ms"}
		out.layers["exp.run_ms"] = metric{median(tracedRun.runMS), "ms"}
		out.layers["exp.memo_hit_ratio"] = metric{float64(r.MemoryHits) / calls, "ratio"}
		out.layers["exp.disk_hit_ratio"] = metric{float64(r.DiskHits) / calls, "ratio"}
		out.layers["exp.simulated_runs"] = metric{float64(r.Simulated), "count"}
		out.layers["trace_overhead_pct"] = metric{(tracedRun.wall.Seconds()/first.wall.Seconds() - 1) * 100, "%"}
		fillAbsentLayers(out.layers)
	}
	return out, nil
}
