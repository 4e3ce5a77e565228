package main

import (
	"math"

	"moca/internal/exp"
	"moca/internal/stats"
)

// headlineRow is one row of the paper's headline table: a MOCA reduction
// measured from a grid, the paper's figure, and the least reduction that
// still points the paper's way (the predicates of the exp package's
// headline test, restated here so the benchmark checks its own outputs).
type headlineRow struct {
	name     string
	measured float64
	paper    float64
	min      float64
}

func reduction(v float64) float64 { return 1 - v }

// The headline functions take grids with one row per app or mix and the
// standard systems' names as columns, raw or already normalized to
// Homogen-DDR3 (as the runner's figure grids are): every row is normalized
// again here, which leaves a normalized grid unchanged.

// singleHeadline computes the four single-core headline rows from the
// memory access time and memory EDP grids (Figs. 8 and 9).
func singleHeadline(perf, edp *stats.Grid) []headlineRow {
	return []headlineRow{
		{"single-core memory access time vs Homogen-DDR3", reduction(perf.Normalize(exp.SysDDR3).ColMean(exp.SysMOCA)), 0.51, 0.25},
		{"single-core memory EDP vs Homogen-DDR3", reduction(edp.Normalize(exp.SysDDR3).ColMean(exp.SysMOCA)), 0.43, 0.15},
		{"single-core memory access time vs Heter-App", reduction(perf.Normalize(exp.SysHeterApp).ColMean(exp.SysMOCA)), 0.14, 0.05},
		{"single-core memory EDP vs Heter-App", reduction(edp.Normalize(exp.SysHeterApp).ColMean(exp.SysMOCA)), 0.15, 0.05},
	}
}

// multiHeadline computes the five multi-program headline rows from the
// memory access time, memory EDP, system time and system EDP grids
// (Figs. 10 to 13).
func multiHeadline(memPerf, memE, sysPerf, sysE *stats.Grid) []headlineRow {
	best := 0.0
	nEDP := memE.Normalize(exp.SysDDR3)
	for _, m := range nEDP.Rows {
		best = math.Max(best, reduction(nEDP.Get(m, exp.SysMOCA)))
	}
	return []headlineRow{
		{"multi-program memory EDP vs Homogen-DDR3 (best)", best, 0.63, 0.15},
		{"multi-program memory access time vs Heter-App", reduction(memPerf.Normalize(exp.SysHeterApp).ColMean(exp.SysMOCA)), 0.26, 0.05},
		{"multi-program memory EDP vs Heter-App", reduction(memE.Normalize(exp.SysHeterApp).ColMean(exp.SysMOCA)), 0.33, 0.05},
		{"multi-program system performance vs Heter-App", reduction(sysPerf.Normalize(exp.SysHeterApp).ColMean(exp.SysMOCA)), 0.10, 0.0},
		{"multi-program system EDP vs Heter-App", reduction(sysE.Normalize(exp.SysHeterApp).ColMean(exp.SysMOCA)), 0.10, 0.0},
	}
}

// paperGapPP is the mean absolute gap between measured and paper rows, in
// percentage points.
func paperGapPP(rows []headlineRow) float64 {
	var sum float64
	for _, r := range rows {
		sum += math.Abs(r.measured-r.paper) * 100
	}
	return sum / float64(len(rows))
}
