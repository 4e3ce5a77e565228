// Package difftest differentially tests the simulator's common-case fast
// path: the same configuration is run with the fast path on and off, and
// every observable output — metrics, energy, placement, run trace, even
// error strings — must match byte-for-byte. A mismatch is minimized to the
// first diverging field and reported with enough context (tick, component,
// field) to bisect the bug that caused it.
package difftest

import (
	"encoding/json"
	"fmt"
	"sort"

	"moca/internal/classify"
	"moca/internal/cpu"
	"moca/internal/event"
	"moca/internal/mem"
	"moca/internal/obs"
	"moca/internal/sim"
	"moca/internal/workload"
)

// Case is one differential scenario. Streams, when non-nil, are per-proc
// stream factories: every execution needs a fresh stream, so the case
// carries constructors rather than consumed iterators.
type Case struct {
	Name    string
	Cfg     sim.Config
	Procs   []sim.ProcSpec
	Streams []func() cpu.Stream
	Warmup  uint64
	Measure uint64
}

// Divergence pinpoints the first observable difference between the fast
// (a) and slow (b) runs of a case. Nil means byte-identical.
type Divergence struct {
	Case string
	// Path is the JSON path of the first differing field ("error" when the
	// runs' error strings differ, "trace[i].<field>" for run-trace events).
	Path string
	A, B string
	// TickPs/Component/Field locate a trace divergence in simulation time:
	// the event timestamp, emitting unit, and differing field. Zero values
	// for non-trace divergences.
	TickPs    int64
	Component string
	Field     string
}

func (d *Divergence) String() string {
	if d == nil {
		return "<identical>"
	}
	loc := ""
	if d.Component != "" || d.TickPs != 0 {
		loc = fmt.Sprintf(" (tick %d ps, component %q, field %q)", d.TickPs, d.Component, d.Field)
	}
	return fmt.Sprintf("%s: fast vs slow path diverge at %s%s:\n  a: %s\n  b: %s",
		d.Case, d.Path, loc, d.A, d.B)
}

// outcome captures everything observable about one run.
type outcome struct {
	res    json.RawMessage
	events []obs.Event
	err    string
}

func execute(c Case, noFastpath bool) (outcome, error) {
	mode := "fast"
	if noFastpath {
		mode = "slow"
	}
	cfg := c.Cfg
	cfg.NoFastpath = noFastpath
	cfg.Obs.Metrics = true
	tr := obs.NewTrace(0)
	cfg.Obs.Trace = tr

	procs := make([]sim.ProcSpec, len(c.Procs))
	copy(procs, c.Procs)
	for i := range procs {
		if c.Streams != nil && c.Streams[i] != nil {
			procs[i].Stream = c.Streams[i]()
		}
	}

	sys, err := sim.New(cfg, procs)
	if err != nil {
		return outcome{}, fmt.Errorf("difftest %s: %s: %w", c.Name, mode, err)
	}
	res, err := sys.Run(c.Warmup, c.Measure)
	if err != nil {
		// A run error is an outcome to compare, not a harness failure:
		// both paths must fail identically or not at all.
		return outcome{err: err.Error(), events: tr.Events()}, nil
	}
	data, err := json.Marshal(res)
	if err != nil {
		return outcome{}, fmt.Errorf("difftest %s: %s: marshal: %w", c.Name, mode, err)
	}
	return outcome{res: data, events: tr.Events()}, nil
}

// Run executes the case with the fast path on and off and returns the
// minimized first divergence, or nil when the outcomes are byte-identical.
// The error covers harness failures only (invalid configuration,
// marshaling).
func Run(c Case) (*Divergence, error) {
	a, err := execute(c, false)
	if err != nil {
		return nil, err
	}
	b, err := execute(c, true)
	if err != nil {
		return nil, err
	}
	d := compare(a, b)
	if d != nil {
		d.Case = c.Name
	}
	return d, nil
}

func compare(a, b outcome) *Divergence {
	if a.err != b.err {
		return &Divergence{Path: "error", A: quoteOr(a.err, "<no error>"), B: quoteOr(b.err, "<no error>")}
	}
	if d := compareTraces(a.events, b.events); d != nil {
		return d
	}
	if string(a.res) == string(b.res) {
		return nil
	}
	// The serializations differ: minimize to the first diverging field.
	var va, vb any
	if json.Unmarshal(a.res, &va) != nil || json.Unmarshal(b.res, &vb) != nil {
		return &Divergence{Path: "$", A: string(a.res), B: string(b.res)}
	}
	path, ga, gb := firstDiff("$", va, vb)
	return &Divergence{Path: path, A: render(ga), B: render(gb)}
}

// compareTraces finds the first differing run-trace event, reporting its
// simulation tick, emitting component, and the specific field.
func compareTraces(a, b []obs.Event) *Divergence {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			continue
		}
		field := eventField(a[i], b[i])
		return &Divergence{
			Path:      fmt.Sprintf("trace[%d].%s", i, field),
			A:         render(a[i]),
			B:         render(b[i]),
			TickPs:    a[i].At,
			Component: a[i].Unit,
			Field:     field,
		}
	}
	if len(a) != len(b) {
		d := &Divergence{
			Path: fmt.Sprintf("trace[%d]", n),
			A:    fmt.Sprintf("%d events", len(a)),
			B:    fmt.Sprintf("%d events", len(b)),
		}
		if len(a) > n {
			d.TickPs, d.Component = a[n].At, a[n].Unit
		} else {
			d.TickPs, d.Component = b[n].At, b[n].Unit
		}
		d.Field = "len"
		return d
	}
	return nil
}

func eventField(a, b obs.Event) string {
	switch {
	case a.At != b.At:
		return "at_ps"
	case a.Kind != b.Kind:
		return "kind"
	case a.Unit != b.Unit:
		return "unit"
	case a.Core != b.Core:
		return "core"
	case a.Addr != b.Addr:
		return "addr"
	default:
		return "aux"
	}
}

// firstDiff walks two decoded JSON trees in deterministic order (sorted
// map keys, array index order) and returns the path and values of the
// first leaf-level difference.
func firstDiff(path string, a, b any) (string, any, any) {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok {
			return path, a, b
		}
		keys := map[string]bool{}
		for k := range av {
			keys[k] = true
		}
		for k := range bv {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			ae, aok := av[k]
			be, bok := bv[k]
			if !aok || !bok {
				return path + "." + k, ae, be
			}
			if p, ga, gb := firstDiff(path+"."+k, ae, be); p != "" {
				return p, ga, gb
			}
		}
		return "", nil, nil
	case []any:
		bv, ok := b.([]any)
		if !ok {
			return path, a, b
		}
		n := len(av)
		if len(bv) < n {
			n = len(bv)
		}
		for i := 0; i < n; i++ {
			if p, ga, gb := firstDiff(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i]); p != "" {
				return p, ga, gb
			}
		}
		if len(av) != len(bv) {
			return fmt.Sprintf("%s[%d]", path, n), fmt.Sprintf("len %d", len(av)), fmt.Sprintf("len %d", len(bv))
		}
		return "", nil, nil
	default:
		if a != b {
			return path, a, b
		}
		return "", nil, nil
	}
}

func render(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%v", v)
	}
	return string(data)
}

func quoteOr(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return fmt.Sprintf("%q", s)
}

// sliceStream replays a fixed instruction slice, then reports exhaustion.
type sliceStream struct {
	ins []cpu.Instr
	i   int
}

func (s *sliceStream) Next() (cpu.Instr, bool) {
	if s.i >= len(s.ins) {
		return cpu.Instr{}, false
	}
	ins := s.ins[s.i]
	s.i++
	return ins, true
}

// FixedStream returns a factory for a stream replaying exactly ins — the
// matrix uses it for the degenerate empty and single-instruction traces,
// which must fail with identical quota errors on both paths.
func FixedStream(ins ...cpu.Instr) func() cpu.Stream {
	return func() cpu.Stream { return &sliceStream{ins: ins} }
}

// Matrix returns the seeded differential scenarios: every placement
// policy, multiple core counts, shrunk cache geometries, a migration
// configuration with a short epoch, and the degenerate empty and
// one-instruction traces. The seed perturbs workload assignment so
// repeated CI runs sweep different app mixes while any given seed stays
// reproducible.
func Matrix(seed int64) []Case {
	apps := []func() workload.AppSpec{
		workload.MCF, workload.Milc, workload.LBM, workload.GCC,
		workload.Libquantum, workload.Disparity,
	}
	pick := func(i int) workload.AppSpec {
		return apps[(int(seed)+i)%len(apps)]()
	}
	procsFor := func(n int, class bool) []sim.ProcSpec {
		var ps []sim.ProcSpec
		for i := 0; i < n; i++ {
			p := sim.ProcSpec{App: pick(i), Input: workload.Ref}
			if class {
				p.AppClass = classifyFor(i)
			}
			ps = append(ps, p)
		}
		return ps
	}

	smallL2 := func(cfg sim.Config) sim.Config {
		cfg.CacheL2.SizeBytes /= 4
		return cfg
	}
	shortEpoch := func(cfg sim.Config) sim.Config {
		cfg.MigrationEpoch = 5 * event.Microsecond
		return cfg
	}

	cases := []Case{
		{
			Name:    "fixed-ddr3-1core",
			Cfg:     sim.DefaultConfig("homogen-ddr3", sim.Homogeneous(mem.DDR3), sim.PolicyFixed),
			Procs:   procsFor(1, false),
			Measure: 4000,
		},
		{
			Name:    "fixed-ddr3-2core-smalll2",
			Cfg:     smallL2(sim.DefaultConfig("homogen-ddr3", sim.Homogeneous(mem.DDR3), sim.PolicyFixed)),
			Procs:   procsFor(2, false),
			Warmup:  2000,
			Measure: 3000,
		},
		{
			Name:    "fixed-hbm-4core",
			Cfg:     sim.DefaultConfig("homogen-hbm", sim.Homogeneous(mem.HBM), sim.PolicyFixed),
			Procs:   procsFor(4, false),
			Measure: 2500,
		},
		{
			Name:    "heterapp-config1-4core",
			Cfg:     sim.DefaultConfig("heter-app", sim.Heterogeneous(sim.Config1), sim.PolicyAppLevel),
			Procs:   procsFor(4, true),
			Warmup:  1000,
			Measure: 2500,
		},
		{
			Name:    "heterapp-config2-2core-smalll2",
			Cfg:     smallL2(sim.DefaultConfig("heter-app", sim.Heterogeneous(sim.Config2), sim.PolicyAppLevel)),
			Procs:   procsFor(2, true),
			Measure: 3000,
		},
		{
			Name:    "migrate-config1-2core",
			Cfg:     shortEpoch(sim.DefaultConfig("migrate", sim.Heterogeneous(sim.Config1), sim.PolicyMigrate)),
			Procs:   procsFor(2, false),
			Measure: 3000,
		},
		{
			Name:    "empty-trace",
			Cfg:     sim.DefaultConfig("homogen-ddr3", sim.Homogeneous(mem.DDR3), sim.PolicyFixed),
			Procs:   procsFor(1, false),
			Streams: []func() cpu.Stream{FixedStream()},
			Measure: 1000,
		},
		{
			Name:    "one-instruction-trace",
			Cfg:     sim.DefaultConfig("homogen-ddr3", sim.Homogeneous(mem.DDR3), sim.PolicyFixed),
			Procs:   procsFor(1, false),
			Streams: []func() cpu.Stream{FixedStream(cpu.Instr{Kind: cpu.Compute, N: 1})},
			Measure: 1000,
		},
	}
	return cases
}

// classifyFor spreads the application-level classes across a mix.
func classifyFor(i int) classify.Class {
	classes := []classify.Class{
		classify.LatencySensitive, classify.BandwidthSensitive, classify.NonIntensive,
	}
	return classes[i%len(classes)]
}
