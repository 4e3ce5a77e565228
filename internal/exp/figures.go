package exp

import (
	"fmt"
	"sort"

	"moca/internal/classify"
	"moca/internal/sim"
	"moca/internal/stats"
	"moca/internal/workload"
)

// AppPoint is one application's aggregate profile — a point in Fig. 1.
type AppPoint struct {
	App   string
	MPKI  float64
	Stall float64
	Class classify.Class
}

// Fig1 reproduces Fig. 1: application-level L2 MPKI vs. ROB-head stall
// cycles per load miss for the whole suite, from training-input profiling.
func (r *Runner) Fig1() ([]AppPoint, *stats.Table, error) {
	names := workload.Names()
	all, err := r.profile(names)
	if err != nil {
		return nil, nil, err
	}
	var pts []AppPoint
	for i, name := range names {
		ins := all[i]
		m := ins.Profile.AppMetrics()
		pts = append(pts, AppPoint{App: name, MPKI: m.MPKI, Stall: m.StallPerMiss, Class: ins.AppClass})
	}
	t := stats.NewTable("Fig. 1: application-level memory access behavior",
		"app", "LLC MPKI", "ROB stall/miss", "class")
	for _, p := range pts {
		t.AddRow(p.App, stats.F(p.MPKI), stats.F(p.Stall), p.Class.String())
	}
	return pts, t, nil
}

// ObjPoint is one memory object's profile — a circle in Fig. 2.
type ObjPoint struct {
	App   string
	Label string
	MPKI  float64
	Stall float64
	Size  uint64
	Class classify.Class
}

// Fig2 reproduces Fig. 2: the per-object (MPKI, stall, size) scatter for
// the given applications (default: the whole suite).
func (r *Runner) Fig2(apps ...string) ([]ObjPoint, *stats.Table, error) {
	if len(apps) == 0 {
		apps = workload.Names()
	}
	all, err := r.profile(apps)
	if err != nil {
		return nil, nil, err
	}
	var pts []ObjPoint
	for i, name := range apps {
		for _, o := range all[i].Profile.HeapObjects() {
			pts = append(pts, ObjPoint{
				App: name, Label: o.Label, MPKI: o.MPKI, Stall: o.StallPerMiss,
				Size: o.SizeBytes, Class: o.Class,
			})
		}
	}
	t := stats.NewTable("Fig. 2: per-object memory access behavior",
		"app", "object", "LLC MPKI", "ROB stall/miss", "size(KB)", "class")
	for _, p := range pts {
		t.AddRow(p.App, p.Label, stats.F(p.MPKI), stats.F(p.Stall),
			fmt.Sprintf("%d", p.Size/1024), p.Class.String())
	}
	return pts, t, nil
}

// Fig5 reproduces the Fig. 5 classification regions: a sample of the
// (MPKI, stall) plane labeled by the default thresholds.
func (r *Runner) Fig5() *stats.Table {
	th := r.FW.ObjectThresholds
	t := stats.NewTable(
		fmt.Sprintf("Fig. 5: classification regions (Thr_Lat=%.0f MPKI, Thr_BW=%.0f cycles)",
			th.LatMPKI, th.BWStallCycles),
		"LLC MPKI", "ROB stall/miss", "class", "module")
	module := map[classify.Class]string{
		classify.LatencySensitive:   "Lat Mem (RLDRAM)",
		classify.BandwidthSensitive: "BW Mem (HBM)",
		classify.NonIntensive:       "Pow Mem (LPDDR)",
	}
	for _, mpki := range []float64{0.5, 2, 10, 50} {
		for _, stall := range []float64{5, 20, 50, 200} {
			c := th.Classify(mpki, stall)
			t.AddRow(stats.F(mpki), stats.F(stall), c.String(), module[c])
		}
	}
	return t
}

// memGrids runs the single-application experiments and returns raw grids
// of memory access time and memory EDP (apps x systems).
func (r *Runner) memGrids() (perf, edp *stats.Grid, err error) {
	systems := StandardSystems()
	apps := workload.Names()
	if err := r.warmSingles(systems, apps); err != nil {
		return nil, nil, err
	}
	perf = stats.NewGrid("memory access time (ps/request)", "app", apps, SystemNames())
	edp = stats.NewGrid("memory EDP", "app", apps, SystemNames())
	for _, def := range systems {
		for _, app := range apps {
			res, err := r.RunSingle(def, app)
			if err != nil {
				return nil, nil, err
			}
			perf.Set(app, def.Name, float64(res.AvgMemAccessTime()))
			edp.Set(app, def.Name, res.MemEDP())
		}
	}
	return perf, edp, nil
}

// Fig8 reproduces Fig. 8: single-core memory access time across the six
// memory systems, normalized to Homogen-DDR3.
func (r *Runner) Fig8() (*stats.Grid, error) {
	perf, _, err := r.memGrids()
	if err != nil {
		return nil, err
	}
	g := perf.Normalize(SysDDR3)
	g.Name = "Fig. 8: memory access time, single workloads (normalized to Homogen-DDR3)"
	return g, nil
}

// Fig9 reproduces Fig. 9: single-core memory EDP, normalized to DDR3.
func (r *Runner) Fig9() (*stats.Grid, error) {
	_, edp, err := r.memGrids()
	if err != nil {
		return nil, err
	}
	g := edp.Normalize(SysDDR3)
	g.Name = "Fig. 9: memory EDP, single workloads (normalized to Homogen-DDR3)"
	return g, nil
}

// mixNames lists the Figs. 10-13 workload sets in order.
func mixNames() []string {
	var out []string
	for _, m := range workload.Mixes() {
		out = append(out, m.Name)
	}
	return out
}

// multiGrids runs the multi-program experiments and returns raw grids of
// memory access time, memory EDP, system time, and system EDP.
func (r *Runner) multiGrids() (memPerf, memEDP, sysPerf, sysEDP *stats.Grid, err error) {
	systems := StandardSystems()
	mixes := workload.Mixes()
	if err := r.warmMixes(systems, mixes); err != nil {
		return nil, nil, nil, nil, err
	}
	names := mixNames()
	memPerf = stats.NewGrid("memory access time (ps/request)", "mix", names, SystemNames())
	memEDP = stats.NewGrid("memory EDP", "mix", names, SystemNames())
	sysPerf = stats.NewGrid("system runtime (ps)", "mix", names, SystemNames())
	sysEDP = stats.NewGrid("system EDP", "mix", names, SystemNames())
	for _, def := range systems {
		for _, m := range mixes {
			res, err := r.RunMix(def, m)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			memPerf.Set(m.Name, def.Name, float64(res.AvgMemAccessTime()))
			memEDP.Set(m.Name, def.Name, res.MemEDP())
			sysPerf.Set(m.Name, def.Name, float64(res.SystemTime()))
			sysEDP.Set(m.Name, def.Name, res.SystemEDP())
		}
	}
	return memPerf, memEDP, sysPerf, sysEDP, nil
}

// Fig10 reproduces Fig. 10: multi-program memory access time (normalized).
func (r *Runner) Fig10() (*stats.Grid, error) {
	p, _, _, _, err := r.multiGrids()
	if err != nil {
		return nil, err
	}
	g := p.Normalize(SysDDR3)
	g.Name = "Fig. 10: memory access time, multi-program workloads (normalized to Homogen-DDR3)"
	return g, nil
}

// Fig11 reproduces Fig. 11: multi-program memory EDP (normalized).
func (r *Runner) Fig11() (*stats.Grid, error) {
	_, e, _, _, err := r.multiGrids()
	if err != nil {
		return nil, err
	}
	g := e.Normalize(SysDDR3)
	g.Name = "Fig. 11: memory EDP, multi-program workloads (normalized to Homogen-DDR3)"
	return g, nil
}

// Fig12 reproduces Fig. 12: multi-program system performance (runtime for
// the fixed instruction quota, normalized to DDR3; lower is better).
func (r *Runner) Fig12() (*stats.Grid, error) {
	_, _, p, _, err := r.multiGrids()
	if err != nil {
		return nil, err
	}
	g := p.Normalize(SysDDR3)
	g.Name = "Fig. 12: system runtime, multi-program workloads (normalized to Homogen-DDR3)"
	return g, nil
}

// Fig13 reproduces Fig. 13: multi-program system EDP (normalized).
func (r *Runner) Fig13() (*stats.Grid, error) {
	_, _, _, e, err := r.multiGrids()
	if err != nil {
		return nil, err
	}
	g := e.Normalize(SysDDR3)
	g.Name = "Fig. 13: system EDP, multi-program workloads (normalized to Homogen-DDR3)"
	return g, nil
}

// sweepCols names the Fig. 14/15 columns: config x policy.
func sweepCols() []string {
	var cols []string
	for _, c := range []string{"config1", "config2", "config3"} {
		cols = append(cols, c+"/Heter-App", c+"/MOCA")
	}
	return cols
}

// configSweepGrids runs the Section VI-C capacity sweep: the five named
// mixes on the three heterogeneous configurations under both policies.
func (r *Runner) configSweepGrids() (perf, edp *stats.Grid, err error) {
	mixes := workload.ConfigSweepMixes()
	var rows []string
	for _, m := range mixes {
		rows = append(rows, m.Name)
	}
	sort.Strings(rows)

	var systems []SystemDef
	for _, hc := range []sim.HeterConfig{sim.Config1, sim.Config2, sim.Config3} {
		mods := sim.Heterogeneous(hc)
		systems = append(systems,
			SystemDef{Name: hc.String() + "/Heter-App", Modules: mods, Policy: sim.PolicyAppLevel},
			SystemDef{Name: hc.String() + "/MOCA", Modules: mods, Policy: sim.PolicyMOCA},
		)
	}
	if err := r.warmMixes(systems, mixes); err != nil {
		return nil, nil, err
	}

	perf = stats.NewGrid("memory access time (ps/request)", "mix", rows, sweepCols())
	edp = stats.NewGrid("memory EDP", "mix", rows, sweepCols())
	for _, def := range systems {
		for _, m := range mixes {
			res, err := r.RunMix(def, m)
			if err != nil {
				return nil, nil, err
			}
			perf.Set(m.Name, def.Name, float64(res.AvgMemAccessTime()))
			edp.Set(m.Name, def.Name, res.MemEDP())
		}
	}
	return perf, edp, nil
}

// Fig14 reproduces Fig. 14: memory access time per heterogeneous
// configuration, normalized per-config to Heter-App.
func (r *Runner) Fig14() (*stats.Grid, error) {
	perf, _, err := r.configSweepGrids()
	if err != nil {
		return nil, err
	}
	g := normalizePerConfig(perf)
	g.Name = "Fig. 14: memory access time across heterogeneous configs (normalized to Heter-App per config)"
	return g, nil
}

// Fig15 reproduces Fig. 15: memory EDP per heterogeneous configuration,
// normalized per-config to Heter-App.
func (r *Runner) Fig15() (*stats.Grid, error) {
	_, edp, err := r.configSweepGrids()
	if err != nil {
		return nil, err
	}
	g := normalizePerConfig(edp)
	g.Name = "Fig. 15: memory EDP across heterogeneous configs (normalized to Heter-App per config)"
	return g, nil
}

// normalizePerConfig divides each configN/MOCA column by the matching
// configN/Heter-App column, row by row (the paper normalizes each config's
// bars to that config's Heter-App).
func normalizePerConfig(g *stats.Grid) *stats.Grid {
	out := stats.NewGrid(g.Name, g.RowName, g.Rows, g.Cols)
	for _, row := range g.Rows {
		for _, cfg := range []string{"config1", "config2", "config3"} {
			base := g.Get(row, cfg+"/Heter-App")
			for _, pol := range []string{"Heter-App", "MOCA"} {
				col := cfg + "/" + pol
				v := g.Get(row, col)
				if base != 0 {
					v /= base
				}
				out.Set(row, col, v)
			}
		}
	}
	return out
}

// SegPoint is one app's stack and code segment MPKI — a pair of bars in
// Fig. 16.
type SegPoint struct {
	App       string
	StackMPKI float64
	CodeMPKI  float64
}

// Fig16 reproduces Fig. 16: L2 MPKI of the stack and code segments for the
// whole suite, justifying their LPDDR placement (Section VI-D).
func (r *Runner) Fig16() ([]SegPoint, *stats.Table, error) {
	names := workload.Names()
	all, err := r.profile(names)
	if err != nil {
		return nil, nil, err
	}
	var pts []SegPoint
	for i, name := range names {
		p := SegPoint{App: name}
		for _, o := range all[i].Profile.Objects {
			switch o.Label {
			case "stack":
				p.StackMPKI = o.MPKI
			case "code":
				p.CodeMPKI = o.MPKI
			}
		}
		pts = append(pts, p)
	}
	t := stats.NewTable("Fig. 16: stack and code segment L2 MPKI", "app", "stack MPKI", "code MPKI")
	for _, p := range pts {
		t.AddRow(p.App, stats.F(p.StackMPKI), stats.F(p.CodeMPKI))
	}
	t.AddNote("both segments stay low-MPKI, so MOCA places them in LPDDR (Section VI-D)")
	return pts, t, nil
}
