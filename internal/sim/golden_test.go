package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"moca/internal/classify"
	"moca/internal/event"
	"moca/internal/heap"
	"moca/internal/mem"
	"moca/internal/obs"
	"moca/internal/trace"
	"moca/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

const goldenMeasure = 60_000

// goldenRecord pins the canonical metrics of one reference run. Integers
// must match bit-exactly; floats are derived from deterministic integer
// state and compared at near-machine precision.
type goldenRecord struct {
	System        string         `json:"system"`
	Policy        string         `json:"policy"`
	ElapsedPs     int64          `json:"elapsed_ps"`
	Instructions  uint64         `json:"instructions"`
	MemRequests   uint64         `json:"mem_requests"`
	MemAccessPs   int64          `json:"mem_access_time_ps"`
	IPC           []float64      `json:"ipc"`
	LLCMPKI       []float64      `json:"llc_mpki"`
	MemEDP        float64        `json:"mem_edp"`
	SystemEDP     float64        `json:"system_edp"`
	PagesByKind   map[string]int `json:"pages_by_kind"`
	FallbackPages uint64         `json:"fallback_pages"`
	Obs           *obs.Snapshot  `json:"obs"`
}

func goldenFrom(res *Result) goldenRecord {
	g := goldenRecord{
		System:        res.Name,
		Policy:        res.Policy,
		ElapsedPs:     int64(res.Elapsed),
		Instructions:  res.TotalInstructions(),
		MemRequests:   res.MemRequests(),
		MemAccessPs:   int64(res.AvgMemAccessTime()),
		MemEDP:        res.MemEDP(),
		SystemEDP:     res.SystemEDP(),
		PagesByKind:   map[string]int{},
		FallbackPages: res.OS.FallbackPages,
		Obs:           res.Obs,
	}
	for _, c := range res.Cores {
		g.IPC = append(g.IPC, c.IPC())
		g.LLCMPKI = append(g.LLCMPKI, c.LLCMPKI())
	}
	for kind, n := range res.PagesOnKind() {
		g.PagesByKind[kind.String()] = n
	}
	return g
}

// goldenCases are the reference configurations: the simplest homogeneous
// baseline and a full MOCA heterogeneous run with hand-built classes, each
// single-core, plus two four-core mixes that pin the cross-core order of
// link deliveries and fills. The migration mix uses a short epoch so that
// each epoch's per-page access counts shape the promotions it makes.
func goldenCases(t *testing.T) []struct {
	name  string
	cfg   Config
	procs []ProcSpec
} {
	disparity := workload.Disparity()
	cm := classMapFor(t, disparity, map[string]classify.Class{
		"images":        classify.BandwidthSensitive,
		"disparity_map": classify.LatencySensitive,
		"kernel_buf":    classify.NonIntensive,
	})
	mix4 := func() []ProcSpec {
		return []ProcSpec{
			{App: workload.MCF(), Input: workload.Ref},
			{App: workload.Milc(), Input: workload.Ref},
			{App: workload.LBM(), Input: workload.Ref},
			{App: workload.GCC(), Input: workload.Ref},
		}
	}
	migrate := DefaultConfig("migrate", Heterogeneous(Config1), PolicyMigrate)
	migrate.MigrationEpoch = 10 * event.Microsecond
	return []struct {
		name  string
		cfg   Config
		procs []ProcSpec
	}{
		{
			name:  "homogen-ddr3-mcf",
			cfg:   DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed),
			procs: []ProcSpec{{App: workload.MCF(), Input: workload.Ref}},
		},
		{
			name: "moca-config1-disparity",
			cfg:  DefaultConfig("moca", Heterogeneous(Config1), PolicyMOCA),
			procs: []ProcSpec{{
				App: disparity, Input: workload.Ref,
				Classes: cm, AppClass: classify.LatencySensitive,
			}},
		},
		{
			name:  "homogen-ddr3-mix4",
			cfg:   DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed),
			procs: mix4(),
		},
		{
			name:  "migrate10us-config1-mix4",
			cfg:   migrate,
			procs: mix4(),
		},
	}
}

// TestGoldenRuns locks the canonical metrics of the reference runs against
// testdata/golden. A legitimate behavior change regenerates them with
//
//	go test ./internal/sim -run TestGoldenRuns -update
func TestGoldenRuns(t *testing.T) {
	for _, tc := range goldenCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Obs.Metrics = true
			// The fast path is pinned to the same goldens as the event
			// engine: CI reruns this suite with MOCA_FASTPATH=0 so the
			// slow path can never rot while the fast path is the default.
			cfg.NoFastpath = os.Getenv("MOCA_FASTPATH") == "0"
			sys, err := New(cfg, tc.procs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(sys.SuggestedWarmup(), goldenMeasure)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenFrom(res)
			path := filepath.Join("testdata", "golden", tc.name+".json")

			if *update {
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			var want goldenRecord
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, got, want)
		})
	}
}

func compareGolden(t *testing.T, got, want goldenRecord) {
	t.Helper()
	if got.System != want.System || got.Policy != want.Policy {
		t.Errorf("identity: got %s/%s, want %s/%s", got.System, got.Policy, want.System, want.Policy)
	}
	if got.ElapsedPs != want.ElapsedPs {
		t.Errorf("elapsed: got %d, want %d", got.ElapsedPs, want.ElapsedPs)
	}
	if got.Instructions != want.Instructions {
		t.Errorf("instructions: got %d, want %d", got.Instructions, want.Instructions)
	}
	if got.MemRequests != want.MemRequests {
		t.Errorf("mem requests: got %d, want %d", got.MemRequests, want.MemRequests)
	}
	if got.MemAccessPs != want.MemAccessPs {
		t.Errorf("mem access time: got %d, want %d", got.MemAccessPs, want.MemAccessPs)
	}
	if got.FallbackPages != want.FallbackPages {
		t.Errorf("fallback pages: got %d, want %d", got.FallbackPages, want.FallbackPages)
	}
	floatsEq := func(name string, g, w []float64) {
		if len(g) != len(w) {
			t.Errorf("%s: %d cores, want %d", name, len(g), len(w))
			return
		}
		for i := range g {
			if !closeEnough(g[i], w[i]) {
				t.Errorf("%s[%d]: got %v, want %v", name, i, g[i], w[i])
			}
		}
	}
	floatsEq("ipc", got.IPC, want.IPC)
	floatsEq("llc_mpki", got.LLCMPKI, want.LLCMPKI)
	if !closeEnough(got.MemEDP, want.MemEDP) {
		t.Errorf("mem EDP: got %v, want %v", got.MemEDP, want.MemEDP)
	}
	if !closeEnough(got.SystemEDP, want.SystemEDP) {
		t.Errorf("system EDP: got %v, want %v", got.SystemEDP, want.SystemEDP)
	}
	if len(got.PagesByKind) != len(want.PagesByKind) {
		t.Errorf("pages by kind: got %v, want %v", got.PagesByKind, want.PagesByKind)
	} else {
		for kind, n := range want.PagesByKind {
			if got.PagesByKind[kind] != n {
				t.Errorf("pages on %s: got %d, want %d", kind, got.PagesByKind[kind], n)
			}
		}
	}
	if !got.Obs.Equal(want.Obs) {
		t.Errorf("obs snapshot diverged:\ngot  %s\nwant %s", mustJSON(got.Obs), mustJSON(want.Obs))
	}
}

// closeEnough compares floats derived from deterministic integer state:
// only formatting-level noise is tolerated, not behavioral drift.
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("<%v>", err)
	}
	return string(data)
}

// TestDeterminismWithReplay runs the same configuration twice directly and
// once more through a recorded-trace replay: all three must agree
// bit-exactly, including the observability snapshots.
func TestDeterminismWithReplay(t *testing.T) {
	spec := workload.Tracking()
	baseProc := ProcSpec{App: spec, Input: workload.Ref}
	newCfg := func() Config {
		cfg := DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed)
		cfg.Obs.Metrics = true
		return cfg
	}
	run := func(proc ProcSpec) (*Result, uint64) {
		sys, err := New(newCfg(), []ProcSpec{proc})
		if err != nil {
			t.Fatal(err)
		}
		warm := sys.SuggestedWarmup()
		res, err := sys.Run(warm, goldenMeasure)
		if err != nil {
			t.Fatal(err)
		}
		return res, warm
	}
	a, warm := run(baseProc)
	b, _ := run(baseProc)

	// Record the app's generator stream from a fresh instance (same spec,
	// heap config, and core seed → identical sequence), then replay it.
	// Slack covers in-flight fetches past the final quota crossing.
	scratch := heap.New(heap.Config{NamingDepth: baseProc.NamingDepth, Classes: baseProc.Classes})
	app, err := workload.Instantiate(spec.ForInput(workload.Ref), scratch, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewBlockWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Record(w, app.Stream(), warm+goldenMeasure+50_000); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewBlockReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replayProc := baseProc
	replayProc.Stream = rd
	c, _ := run(replayProc)

	for _, pair := range []struct {
		label string
		other *Result
	}{{"rerun", b}, {"replay", c}} {
		o := pair.other
		if a.Elapsed != o.Elapsed {
			t.Errorf("%s: elapsed %d != %d", pair.label, o.Elapsed, a.Elapsed)
		}
		if a.Cores[0].CPU != o.Cores[0].CPU {
			t.Errorf("%s: core stats differ:\n%+v\n%+v", pair.label, o.Cores[0].CPU, a.Cores[0].CPU)
		}
		if a.AvgMemAccessTime() != o.AvgMemAccessTime() {
			t.Errorf("%s: mem access time %d != %d", pair.label, o.AvgMemAccessTime(), a.AvgMemAccessTime())
		}
		if a.MemRequests() != o.MemRequests() {
			t.Errorf("%s: mem requests %d != %d", pair.label, o.MemRequests(), a.MemRequests())
		}
		if !a.Obs.Equal(o.Obs) {
			t.Errorf("%s: obs snapshots diverged:\na: %s\n%s: %s",
				pair.label, mustJSON(a.Obs), pair.label, mustJSON(o.Obs))
		}
	}

	// The snapshots must also serialize byte-identically (the property the
	// golden files and any external diffing rely on).
	ja, jb := mustJSON(a.Obs), mustJSON(b.Obs)
	if ja != jb {
		t.Errorf("snapshot JSON not byte-identical:\n%s\n%s", ja, jb)
	}
}
