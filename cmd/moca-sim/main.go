// Command moca-sim runs one simulation: a single application or a 4-app
// workload mix on a chosen memory system, and prints the measured memory
// and system metrics plus the per-module page placement census.
//
// Usage:
//
//	moca-sim [-system NAME] [-measure N] (-app NAME | -mix NAME)
//
// Systems: ddr3, rl, hbm, lp (homogeneous); heter-app, moca (heterogeneous
// config1); heter-app@config2, moca@config3, ... (other capacity configs).
//
// MOCA and Heter-App systems need per-application classification; by
// default the offline profiling stage runs automatically. Pass -profiles
// DIR to load <app>.profile.json files written by moca-profile instead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"moca"
	"moca/internal/cmdutil"
	"moca/internal/exp"
	"moca/internal/mem"
	"moca/internal/profile"
	"moca/internal/wire"
	"moca/internal/wire/client"
)

// main delegates to run so deferred flushes (the run trace) execute even
// when the simulation fails: os.Exit in main's body would discard them.
func main() {
	os.Exit(run())
}

func run() (code int) {
	system := flag.String("system", "moca", "memory system (ddr3|rl|hbm|lp|heter-app|moca|migrate, optionally @config2/@config3)")
	appName := flag.String("app", "", "single application to run")
	mixName := flag.String("mix", "", "4-application workload set to run")
	measure := flag.Uint64("measure", 300_000, "measured instructions per core")
	fastpath := flag.Bool("fastpath", envOr("MOCA_FASTPATH", "1") != "0", "inline-hit and compute-batch fast path (byte-identical either way; default $MOCA_FASTPATH or on)")
	window := flag.Uint64("profile-window", 300_000, "auto-profiling window (instructions)")
	profiles := flag.String("profiles", "", "directory of <app>.profile.json files (skips auto-profiling)")
	jsonOut := flag.Bool("json", false, "emit the result as JSON instead of tables")
	metrics := flag.Bool("metrics", false, "collect runtime metrics and emit the snapshot (table + JSON)")
	traceOut := flag.String("trace-out", "", "write the structured run trace (JSON lines) to this file")
	cacheDir := flag.String("cache-dir", os.Getenv("MOCA_CACHE_DIR"), "persistent run-cache directory (default $MOCA_CACHE_DIR; empty = disabled)")
	cacheMode := flag.String("cache", envOr("MOCA_CACHE", "write"), "persistent cache mode: off, read, or write (default $MOCA_CACHE or write)")
	remote := flag.String("remote", "", "run on a moca-served instance at this address instead of locally (host:port)")
	flag.Parse()

	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "moca-sim: "+format+"\n", args...)
		return 1
	}

	ctx, stop := cmdutil.NotifyContext(context.Background(), "moca-sim")
	defer stop()

	if (*appName == "") == (*mixName == "") {
		return fail("exactly one of -app or -mix is required")
	}
	var apps []string
	if *appName != "" {
		apps = []string{*appName}
	} else {
		mix, ok := moca.MixByName(*mixName)
		if !ok {
			var names []string
			for _, m := range moca.WorkloadMixes() {
				names = append(names, m.Name)
			}
			return fail("unknown mix %q (have: %s)", *mixName, strings.Join(names, " "))
		}
		apps = mix.Apps
	}

	if *remote != "" {
		res, err := runRemote(ctx, *remote, *system, *appName, *mixName, *measure, *window, *metrics)
		if err != nil {
			return fail("%v", err)
		}
		if *jsonOut {
			err = reportJSON(res)
		} else {
			err = report(res)
		}
		if err != nil {
			return fail("%v", err)
		}
		return 0
	}

	cfg, err := systemConfig(*system)
	if err != nil {
		return fail("%v", err)
	}
	var runTrace *moca.RunTrace
	if *traceOut != "" {
		runTrace = moca.NewRunTrace(0)
		// Flush from a defer so a failing run still leaves its partial
		// trace on disk.
		defer func() {
			if err := writeTrace(*traceOut, runTrace); err != nil {
				fmt.Fprintf(os.Stderr, "moca-sim: %v\n", err)
				if code == 0 {
					code = 1
				}
				return
			}
			fmt.Fprintf(os.Stderr, "moca-sim: wrote %d trace events to %s (%d dropped past cap)\n",
				runTrace.Len(), *traceOut, runTrace.Dropped())
		}()
	}
	cfg.Obs = moca.ObsOptions{Metrics: *metrics, Trace: runTrace}
	cfg.NoFastpath = !*fastpath

	var cache *exp.RunCache
	if *cacheDir != "" {
		mode, err := exp.ParseCacheMode(*cacheMode)
		if err != nil {
			return fail("%v", err)
		}
		if cache, err = exp.OpenRunCache(*cacheDir, mode); err != nil {
			return fail("%v", err)
		}
	}

	fw := moca.NewFramework()
	fw.ProfileWindow = *window
	var procs []moca.ProcSpec
	for _, name := range apps {
		spec, ok := moca.AppByName(name)
		if !ok {
			return fail("unknown application %q", name)
		}
		ins, err := instrument(fw, spec, *profiles)
		if err != nil {
			return fail("%v", err)
		}
		procs = append(procs, ins.Proc(cfg.Policy, moca.Ref))
	}

	var cacheKey string
	if cache != nil {
		if cacheKey, err = exp.ResultCacheKey(cfg, procs, *measure, fw.ProfileWindow); err != nil {
			return fail("%v", err)
		}
	}
	res, cached := cache.LoadResult(cacheKey)
	if cached {
		res.Name = cfg.Name
		fmt.Fprintf(os.Stderr, "moca-sim: result loaded from cache %s\n", cache.Dir())
	} else {
		sys, err := moca.NewSystem(cfg, procs)
		if err != nil {
			return fail("%v", err)
		}
		if res, err = sys.RunContext(ctx, sys.SuggestedWarmup(), *measure); err != nil {
			return fail("%v", err)
		}
		if cache != nil {
			if err := cache.StoreResult(cacheKey, res); err != nil {
				return fail("%v", err)
			}
		}
	}
	if *jsonOut {
		err = reportJSON(res)
	} else {
		err = report(res)
	}
	if err != nil {
		return fail("%v", err)
	}
	return 0
}

func envOr(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}

// runRemote submits the run to a moca-served instance and waits for its
// result, printing progress ticks to stderr. Identical submissions from
// any number of moca-sim invocations share one simulation server-side.
// The local cache and trace flags do not apply: the server owns its cache,
// and the run trace never crosses the wire.
func runRemote(ctx context.Context, addr, system, app, mix string, measure, window uint64, metrics bool) (*moca.Result, error) {
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		return nil, fmt.Errorf("connecting to %s: %w", addr, err)
	}
	defer c.Close()
	var lastPct uint64 = ^uint64(0)
	res, _, err := c.Run(ctx, wire.Submit{
		System:        system,
		App:           app,
		Mix:           mix,
		Measure:       measure,
		ProfileWindow: window,
		Metrics:       metrics,
	}, func(done, total uint64) {
		if total == 0 {
			return
		}
		if pct := done * 100 / total; pct != lastPct {
			lastPct = pct
			fmt.Fprintf(os.Stderr, "moca-sim: remote run %d%% (%d/%d instructions)\n", pct, done, total)
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func writeTrace(path string, tr *moca.RunTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jsonReport is the machine-readable result schema.
type jsonReport struct {
	System            string         `json:"system"`
	Policy            string         `json:"policy"`
	ElapsedPs         int64          `json:"elapsed_ps"`
	Instructions      uint64         `json:"instructions"`
	MemAccessTimePs   int64          `json:"mem_access_time_ps"`
	MemEnergyJ        float64        `json:"mem_energy_j"`
	MemPowerW         float64        `json:"mem_power_w"`
	MemEDP            float64        `json:"mem_edp"`
	SystemEDP         float64        `json:"system_edp"`
	Cores             []jsonCore     `json:"cores"`
	Channels          []jsonChannel  `json:"channels"`
	PagesByKind       map[string]int `json:"pages_by_kind"`
	FallbackPages     uint64         `json:"fallback_pages"`
	MigrationEpochs   uint64         `json:"migration_epochs,omitempty"`
	MigrationPromotes uint64         `json:"migration_promotions,omitempty"`
	// Metrics is the observability snapshot (present with -metrics).
	Metrics *moca.MetricsSnapshot `json:"metrics,omitempty"`
}

type jsonCore struct {
	App          string  `json:"app"`
	IPC          float64 `json:"ipc"`
	LLCMPKI      float64 `json:"llc_mpki"`
	StallPerMiss float64 `json:"stall_per_miss"`
}

type jsonChannel struct {
	Name       string  `json:"name"`
	Requests   uint64  `json:"requests"`
	AvgNs      float64 `json:"avg_ns"`
	RowHitRate float64 `json:"row_hit_rate"`
}

func reportJSON(res *moca.Result) error {
	out := jsonReport{
		System:            res.Name,
		Policy:            res.Policy,
		ElapsedPs:         int64(res.Elapsed),
		Instructions:      res.TotalInstructions(),
		MemAccessTimePs:   int64(res.AvgMemAccessTime()),
		MemEnergyJ:        res.MemEnergyJ(),
		MemPowerW:         res.MemPowerW(),
		MemEDP:            res.MemEDP(),
		SystemEDP:         res.SystemEDP(),
		PagesByKind:       map[string]int{},
		FallbackPages:     res.OS.FallbackPages,
		MigrationEpochs:   res.Migration.Epochs,
		MigrationPromotes: res.Migration.Promotions,
		Metrics:           res.Obs,
	}
	for _, c := range res.Cores {
		out.Cores = append(out.Cores, jsonCore{
			App: c.App, IPC: c.IPC(), LLCMPKI: c.LLCMPKI(), StallPerMiss: c.StallPerMiss(),
		})
	}
	for _, ch := range res.Channels {
		out.Channels = append(out.Channels, jsonChannel{
			Name: ch.Name, Requests: ch.Stats.Requests(),
			AvgNs:      float64(ch.Stats.AvgLatency()) / 1000,
			RowHitRate: ch.Stats.RowHitRate(),
		})
	}
	for kind, n := range res.PagesOnKind() {
		out.PagesByKind[kind.String()] = n
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func systemConfig(name string) (moca.SystemConfig, error) {
	base, cfgSel := name, moca.Config1
	if i := strings.Index(name, "@"); i >= 0 {
		base = name[:i]
		switch name[i+1:] {
		case "config1":
			cfgSel = moca.Config1
		case "config2":
			cfgSel = moca.Config2
		case "config3":
			cfgSel = moca.Config3
		default:
			return moca.SystemConfig{}, fmt.Errorf("unknown capacity config %q", name[i+1:])
		}
	}
	switch base {
	case "ddr3":
		return moca.DefaultSystem("homogen-ddr3", moca.Homogeneous(moca.DDR3), moca.PolicyFixed), nil
	case "rl", "rldram":
		return moca.DefaultSystem("homogen-rl", moca.Homogeneous(moca.RLDRAM), moca.PolicyFixed), nil
	case "hbm":
		return moca.DefaultSystem("homogen-hbm", moca.Homogeneous(moca.HBM), moca.PolicyFixed), nil
	case "lp", "lpddr2":
		return moca.DefaultSystem("homogen-lp", moca.Homogeneous(moca.LPDDR2), moca.PolicyFixed), nil
	case "heter-app":
		return moca.DefaultSystem("heter-app", moca.Heterogeneous(cfgSel), moca.PolicyAppLevel), nil
	case "moca":
		return moca.DefaultSystem("moca", moca.Heterogeneous(cfgSel), moca.PolicyMOCA), nil
	case "migrate":
		return moca.DefaultSystem("migrate", moca.Heterogeneous(cfgSel), moca.PolicyMigrate), nil
	default:
		return moca.SystemConfig{}, fmt.Errorf("unknown system %q", name)
	}
}

func instrument(fw *moca.Framework, spec moca.AppSpec, dir string) (moca.Instrumentation, error) {
	if dir == "" {
		return fw.Instrument(spec)
	}
	path := filepath.Join(dir, spec.Name+".profile.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return moca.Instrumentation{}, fmt.Errorf("loading profile: %w (run moca-profile -o %s %s)", err, dir, spec.Name)
	}
	pr, err := profile.Unmarshal(data)
	if err != nil {
		return moca.Instrumentation{}, err
	}
	return fw.InstrumentFromProfile(spec, pr), nil
}

func report(res *moca.Result) error {
	fmt.Printf("system: %s (policy %s)\n", res.Name, res.Policy)
	fmt.Printf("window: %.2f ms simulated, %d instructions total\n",
		float64(res.Elapsed)/1e9, res.TotalInstructions())
	fmt.Println()
	fmt.Printf("%-6s %-12s %8s %10s %12s %10s\n", "core", "app", "IPC", "LLC MPKI", "stall/miss", "TLB hit")
	for i, c := range res.Cores {
		fmt.Printf("%-6d %-12s %8.2f %10.2f %12.1f %9.1f%%\n",
			i, c.App, c.IPC(), c.LLCMPKI(), c.StallPerMiss(), c.TLBHitRate*100)
	}
	fmt.Println()
	fmt.Printf("%-22s %10s %10s %10s %10s\n", "channel", "requests", "avg ns", "row-hit", "queue ns")
	for _, ch := range res.Channels {
		st := ch.Stats
		if st.Requests() == 0 {
			fmt.Printf("%-22s %10d\n", ch.Name, 0)
			continue
		}
		fmt.Printf("%-22s %10d %10.1f %9.0f%% %10.1f\n",
			ch.Name, st.Requests(), float64(st.AvgLatency())/1000,
			st.RowHitRate()*100, float64(st.TotalQueueing)/float64(st.Requests())/1000)
	}
	fmt.Println()
	fmt.Printf("memory access time: %.1f ns/request\n", float64(res.AvgMemAccessTime())/1000)
	fmt.Printf("memory power:       %.4f W (energy %.3e J)\n", res.MemPowerW(), res.MemEnergyJ())
	fmt.Printf("memory EDP:         %.3e\n", res.MemEDP())
	fmt.Printf("system EDP:         %.3e\n", res.SystemEDP())
	fmt.Println()
	fmt.Println("page placement (pages per module kind):")
	pages := res.PagesOnKind()
	kinds := make([]mem.Kind, 0, len(pages))
	for kind := range pages {
		kinds = append(kinds, kind)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, kind := range kinds {
		fmt.Printf("  %-8v %6d\n", kind, pages[kind])
	}
	if res.OS.FallbackPages > 0 {
		fmt.Printf("  (%d pages fell back past their first-choice module)\n", res.OS.FallbackPages)
	}
	if m := res.Migration; m.Epochs > 0 {
		fmt.Printf("migration: %d epochs, %d promotions, %d demotions, %d KB copied, %d shootdowns\n",
			m.Epochs, m.Promotions, m.Demotions, m.CopiedKB, m.Shootdowns)
	}
	if res.Obs != nil {
		fmt.Println()
		fmt.Print(res.Obs.Table("metrics (measured window)").String())
		data, err := json.MarshalIndent(res.Obs, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("\nmetrics snapshot (JSON):\n%s\n", data)
	}
	return nil
}
