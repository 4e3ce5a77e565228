package exp

import (
	"fmt"

	"moca/internal/classify"
	"moca/internal/cpu"
	"moca/internal/event"
	"moca/internal/mem"
	"moca/internal/stats"
	"moca/internal/workload"
)

// Table1 echoes the simulated microarchitecture (paper Table I).
func Table1() *stats.Table {
	c := cpu.DefaultConfig()
	t := stats.NewTable("Table I: microarchitectural details of the simulated system", "component", "parameters")
	t.AddRow("Execution core", fmt.Sprintf("%d GHz x86-like OoO, width %d, %d-entry ROB, %d-entry LQ",
		int(event.Second/c.Cycle/1e9), c.Width, c.ROBSize, c.LQSize))
	t.AddRow("L1 caches", "64KB split I/D, 2-way, 2 cycles, 64B lines, 4 MSHR")
	t.AddRow("L2 (LLC)", "unified 512KB, 16-way, 20 cycles, 64B lines, 20 MSHR")
	t.AddRow("Memory controller", "RoRaBaChCo mapping, 4 channels, FR-FCFS scheduling")
	return t
}

// Table2 echoes the memory module parameters (paper Table II).
func Table2() *stats.Table {
	t := stats.NewTable("Table II: timing and architectural parameters of memory modules",
		"parameter", "DDR3", "HBM", "RLDRAM", "LPDDR2")
	devs := []mem.DeviceParams{mem.Preset(mem.DDR3), mem.Preset(mem.HBM), mem.Preset(mem.RLDRAM), mem.Preset(mem.LPDDR2)}
	row := func(name string, f func(mem.DeviceParams) string) {
		cells := []string{name}
		for _, d := range devs {
			cells = append(cells, f(d))
		}
		t.AddRow(cells...)
	}
	ns := func(ps event.Time) string { return fmt.Sprintf("%.2f", float64(ps)/1000) }
	row("Burst length", func(d mem.DeviceParams) string { return fmt.Sprintf("%d", d.Timing.BurstLength) })
	row("# of banks", func(d mem.DeviceParams) string { return fmt.Sprintf("%d", d.Geometry.Banks) })
	row("Row buffer size", func(d mem.DeviceParams) string { return fmt.Sprintf("%dB", d.Geometry.RowBufferBytes) })
	row("# of rows", func(d mem.DeviceParams) string { return fmt.Sprintf("%dK", d.Geometry.Rows/1024) })
	row("Device width", func(d mem.DeviceParams) string { return fmt.Sprintf("%d", d.Geometry.DeviceWidthBits) })
	row("tCK (ns)", func(d mem.DeviceParams) string { return ns(d.Timing.TCK) })
	row("tRAS (ns)", func(d mem.DeviceParams) string { return ns(d.Timing.TRAS) })
	row("tRCD (ns)", func(d mem.DeviceParams) string { return ns(d.Timing.TRCD) })
	row("tRC (ns)", func(d mem.DeviceParams) string { return ns(d.Timing.TRC) })
	row("tRFC (ns)", func(d mem.DeviceParams) string { return ns(d.Timing.TRFC) })
	row("Standby power (mW/GB)", func(d mem.DeviceParams) string { return stats.F(d.Power.StandbyMilliwattPerGB) })
	row("Active power (W/GB)", func(d mem.DeviceParams) string { return stats.F(d.Power.ActiveWattPerGB) })
	t.AddNote("RLDRAM power is 5x DDR3 per the paper's text; LPDDR2 standby is active-standby; see DESIGN.md")
	return t
}

// Table3Expected is the paper's Table III classification.
func Table3Expected() map[string]classify.Class {
	return map[string]classify.Class{
		"mcf": classify.LatencySensitive, "milc": classify.LatencySensitive,
		"libquantum": classify.LatencySensitive, "disparity": classify.LatencySensitive,
		"mser": classify.BandwidthSensitive, "lbm": classify.BandwidthSensitive,
		"tracking": classify.BandwidthSensitive,
		"gcc":      classify.NonIntensive, "sift": classify.NonIntensive,
		"stitch": classify.NonIntensive,
	}
}

// Table3 reproduces Table III: measured application-level classification,
// side by side with the paper's.
func (r *Runner) Table3() (map[string]classify.Class, *stats.Table, error) {
	got := map[string]classify.Class{}
	t := stats.NewTable("Table III: benchmark classification", "app", "measured", "paper")
	want := Table3Expected()
	names := workload.Names()
	all, err := r.profile(names)
	if err != nil {
		return nil, nil, err
	}
	for i, name := range names {
		ins := all[i]
		got[name] = ins.AppClass
		t.AddRow(name, ins.AppClass.String(), want[name].String())
	}
	return got, t, nil
}

// Headline collects the paper's headline comparisons.
type Headline struct {
	// Single-core (Section VI-A; means over the suite).
	SingleAccessTimeVsDDR3 float64 // paper: -51%
	SingleMemEDPVsDDR3     float64 // paper: -43%
	SingleAccessTimeVsApp  float64 // paper: -14%
	SingleMemEDPVsApp      float64 // paper: -15%
	// Multi-program (Section VI-B; means over the mixes, max for "up to").
	MultiMemEDPVsDDR3Best float64 // paper: up to -63%
	MultiAccessTimeVsApp  float64 // paper: -26%
	MultiMemEDPVsApp      float64 // paper: -33%
	SystemPerfVsApp       float64 // paper: ~-10%
	SystemEDPVsApp        float64 // paper: ~-10%
}

// reduction returns the fractional reduction of v versus base (positive =
// improvement).
func reduction(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 1 - v/base
}

// Headline computes the table of headline numbers from the single- and
// multi-program grids.
func (r *Runner) Headline() (Headline, *stats.Table, error) {
	perf1, edp1, err := r.memGrids()
	if err != nil {
		return Headline{}, nil, err
	}
	memPerf, memEDP, sysPerf, sysEDP, err := r.multiGrids()
	if err != nil {
		return Headline{}, nil, err
	}

	var h Headline
	h.SingleAccessTimeVsDDR3 = reduction(perf1.Normalize(SysDDR3).ColMean(SysMOCA), 1)
	h.SingleMemEDPVsDDR3 = reduction(edp1.Normalize(SysDDR3).ColMean(SysMOCA), 1)
	h.SingleAccessTimeVsApp = reduction(perf1.Normalize(SysHeterApp).ColMean(SysMOCA), 1)
	h.SingleMemEDPVsApp = reduction(edp1.Normalize(SysHeterApp).ColMean(SysMOCA), 1)

	nEDP := memEDP.Normalize(SysDDR3)
	best := 0.0
	for _, mix := range nEDP.Rows {
		if red := reduction(nEDP.Get(mix, SysMOCA), 1); red > best {
			best = red
		}
	}
	h.MultiMemEDPVsDDR3Best = best
	h.MultiAccessTimeVsApp = reduction(memPerf.Normalize(SysHeterApp).ColMean(SysMOCA), 1)
	h.MultiMemEDPVsApp = reduction(memEDP.Normalize(SysHeterApp).ColMean(SysMOCA), 1)
	h.SystemPerfVsApp = reduction(sysPerf.Normalize(SysHeterApp).ColMean(SysMOCA), 1)
	h.SystemEDPVsApp = reduction(sysEDP.Normalize(SysHeterApp).ColMean(SysMOCA), 1)

	pct := func(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
	t := stats.NewTable("Headline results: MOCA improvements", "metric", "measured", "paper")
	t.AddRow("single-core memory access time vs Homogen-DDR3", pct(h.SingleAccessTimeVsDDR3), "51%")
	t.AddRow("single-core memory EDP vs Homogen-DDR3", pct(h.SingleMemEDPVsDDR3), "43%")
	t.AddRow("single-core memory access time vs Heter-App", pct(h.SingleAccessTimeVsApp), "14%")
	t.AddRow("single-core memory EDP vs Heter-App", pct(h.SingleMemEDPVsApp), "15%")
	t.AddRow("multi-program memory EDP vs Homogen-DDR3 (best)", pct(h.MultiMemEDPVsDDR3Best), "63%")
	t.AddRow("multi-program memory access time vs Heter-App", pct(h.MultiAccessTimeVsApp), "26%")
	t.AddRow("multi-program memory EDP vs Heter-App", pct(h.MultiMemEDPVsApp), "33%")
	t.AddRow("multi-program system performance vs Heter-App", pct(h.SystemPerfVsApp), "10%")
	t.AddRow("multi-program system EDP vs Heter-App", pct(h.SystemEDPVsApp), "10%")
	return h, t, nil
}
