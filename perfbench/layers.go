package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"

	"moca/internal/sim"
)

// layerNames lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload never enters reads 0.
var layerNames = map[string]string{
	"event.executed_per_kinstr":      "count",
	"event.self_pct":                 "%",
	"sim.windows_per_kinstr":         "count",
	"sim.self_pct":                   "%",
	"cpu.self_pct":                   "%",
	"cpu.ipc":                        "ratio",
	"cpu.rob_stall_per_miss":         "cycles",
	"cache.self_pct":                 "%",
	"cache.llc_mpki":                 "count",
	"cache.mshr_full_per_kinstr":     "count",
	"mem.self_pct":                   "%",
	"mem.requests_per_kinstr":        "count",
	"mem.row_hit_ratio":              "ratio",
	"mem.queue_ns_avg":               "ns",
	"alloc.fallback_pages":           "count",
	"vm.self_pct":                    "%",
	"vm.tlb_hit_rate":                "ratio",
	"workload.self_pct":              "%",
	"core.self_pct":                  "%",
	"core.instrument_ms":             "ms",
	"exp.self_pct":                   "%",
	"exp.run_ms":                     "ms",
	"exp.memo_hit_ratio":             "ratio",
	"exp.disk_hit_ratio":             "ratio",
	"exp.simulated_runs":             "count",
	"exp.cache_load_ms":              "ms",
	"exp.cache_store_ms":             "ms",
	"wire.result_bytes_avg":          "B",
	"wire.self_pct":                  "%",
	"sim.result_decode_ms":           "ms",
	"trace.self_pct":                 "%",
	"trace.bytes_per_item":           "B",
	"trace.decode_mitems_per_s":      "Mitems/s",
	"trace.push_ms":                  "ms",
	"runtime.self_pct":               "%",
	"runtime.mallocs_per_kinstr":     "count",
	"runtime.alloc_bytes_per_kinstr": "B",
	"runtime.gc_pct":                 "%",
	"trace_overhead_pct":             "%",
}

// fillAbsentLayers reports 0 for layers the workload never entered.
func fillAbsentLayers(m map[string]metric) {
	for name, unit := range layerNames {
		if _, ok := m[name]; !ok {
			m[name] = metric{0, unit}
		}
	}
}

func sortedNames(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// addModelCounts derives the deterministic per-layer counts from a set of
// simulation results. withObs adds the counters only the observability
// registry carries (event.executed).
func addModelCounts(m map[string]metric, results []*sim.Result, withObs bool) {
	var instr, cycles, windows, memStall, memLoads, misses, mshrFull uint64
	var requests, rowHits, fallback, executed uint64
	var queuePS float64
	var tlb float64
	var cores int
	for _, r := range results {
		var maxCycles uint64
		for _, c := range r.Cores {
			instr += c.CPU.Instructions
			cycles += c.CPU.Cycles
			memStall += c.CPU.MemStallCycles
			memLoads += c.CPU.MemLoads
			misses += c.Hier.DemandMisses
			mshrFull += c.Hier.MSHRFullStalls
			tlb += c.TLBHitRate
			cores++
			if c.CPU.Cycles > maxCycles {
				maxCycles = c.CPU.Cycles
			}
		}
		// One barrier window every 8 core cycles of the measured span.
		windows += maxCycles / 8
		for _, ch := range r.Channels {
			requests += ch.Stats.Requests()
			rowHits += ch.Stats.RowHits
			queuePS += float64(ch.Stats.TotalQueueing)
		}
		fallback += r.OS.FallbackPages
		if r.Obs != nil {
			executed += r.Obs.Counters["event.executed"]
		}
	}
	if instr == 0 {
		return
	}
	kinstr := float64(instr) / 1000
	m["sim.windows_per_kinstr"] = metric{float64(windows) / kinstr, "count"}
	m["cpu.ipc"] = metric{float64(instr) / float64(cycles), "ratio"}
	m["cpu.rob_stall_per_miss"] = metric{safeDiv(float64(memStall), float64(memLoads)), "cycles"}
	m["cache.llc_mpki"] = metric{float64(misses) / kinstr, "count"}
	m["cache.mshr_full_per_kinstr"] = metric{float64(mshrFull) / kinstr, "count"}
	m["mem.requests_per_kinstr"] = metric{float64(requests) / kinstr, "count"}
	m["mem.row_hit_ratio"] = metric{safeDiv(float64(rowHits), float64(requests)), "ratio"}
	m["mem.queue_ns_avg"] = metric{safeDiv(queuePS/1000, float64(requests)), "ns"}
	m["alloc.fallback_pages"] = metric{float64(fallback), "count"}
	m["vm.tlb_hit_rate"] = metric{tlb / float64(cores), "ratio"}
	if withObs {
		m["event.executed_per_kinstr"] = metric{float64(executed) / kinstr, "count"}
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuProfile is a running CPU profile plus the runtime counters read at
// its start; stop turns both into per-layer shares and rates.
type cpuProfile struct {
	buf           bytes.Buffer
	mem           runtime.MemStats
	gcCPU, allCPU float64
}

func readCPUClasses() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	runtime.GC()
	runtime.ReadMemStats(&p.mem)
	p.gcCPU, p.allCPU = readCPUClasses()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns the layer shares of its samples plus
// the runtime's allocation and GC rates over instr measured instructions.
func (p *cpuProfile) stop(instr uint64) (map[string]metric, error) {
	pprof.StopCPUProfile()
	gc, all := readCPUClasses()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	out := map[string]metric{}
	shares, err := layerShares(p.buf.Bytes())
	for layer, pct := range shares {
		if _, ok := layerNames[layer+".self_pct"]; ok {
			out[layer+".self_pct"] = metric{pct, "%"}
		}
	}
	kinstr := float64(instr) / 1000
	out["runtime.mallocs_per_kinstr"] = metric{safeDiv(float64(after.Mallocs-p.mem.Mallocs), kinstr), "count"}
	out["runtime.alloc_bytes_per_kinstr"] = metric{safeDiv(float64(after.TotalAlloc-p.mem.TotalAlloc), kinstr), "B"}
	out["runtime.gc_pct"] = metric{safeDiv(gc-p.gcCPU, all-p.allCPU) * 100, "%"}
	return out, err
}

// layerOf maps a function's package to the repository layer that owns it.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	rest, ok := strings.CutPrefix(pkg, "moca/internal/")
	if !ok {
		return "other"
	}
	top, _, _ := strings.Cut(rest, "/")
	switch top {
	case "vm", "heap", "alloc":
		return "vm"
	case "core", "profile", "classify":
		return "core"
	case "event", "sim", "cpu", "cache", "mem", "workload", "exp", "wire", "trace":
		return top
	}
	return "other"
}

// layerShares decodes a gzipped pprof CPU profile and returns, per layer,
// the percentage of samples whose leaf frame (innermost inlined function)
// belongs to it.
func layerShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id -> string index
		locLeaf   = map[uint64]uint64{} // location id -> leaf function id
		sampleLoc []uint64              // leaf location per sample
		sampleN   []int64               // sample count per sample
	)
	err = walkProto(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var leaf uint64
			var n int64 = 1
			haveLeaf, haveN := false, false
			err := walkProto(b, func(f, w int, v uint64, b []byte) error {
				switch {
				case f == 1 && w == 2: // packed location_id
					if !haveLeaf && len(b) > 0 {
						leaf, _ = binary.Uvarint(b)
						haveLeaf = true
					}
				case f == 1 && w == 0:
					if !haveLeaf {
						leaf, haveLeaf = v, true
					}
				case f == 2 && w == 2: // packed value: [samples, cpu-ns]
					if !haveN && len(b) > 0 {
						u, _ := binary.Uvarint(b)
						n, haveN = int64(u), true
					}
				case f == 2 && w == 0:
					if !haveN {
						n, haveN = int64(v), true
					}
				}
				return nil
			})
			sampleLoc = append(sampleLoc, leaf)
			sampleN = append(sampleN, n)
			return err
		case 4: // Location
			var id, fn uint64
			haveFn := false
			err := walkProto(b, func(f, w int, v uint64, b []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2 && !haveFn: // first Line = innermost
					return walkProto(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 && w == 0 {
							fn, haveFn = v, true
						}
						return nil
					})
				}
				return nil
			})
			locLeaf[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walkProto(b, func(f, w int, v uint64, _ []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 2 && w == 0:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for i, loc := range sampleLoc {
		name := "?"
		if si, ok := funcName[locLeaf[loc]]; ok && si >= 0 && int(si) < len(strs) {
			name = strs[si]
		}
		counts[layerOf(name)] += sampleN[i]
		total += sampleN[i]
	}
	out := map[string]float64{}
	for layer, n := range counts {
		out[layer] = 100 * float64(n) / float64(max(total, 1))
	}
	return out, nil
}

// walkProto calls fn for every field of one protobuf message: varints
// arrive in v, length-delimited fields in b.
func walkProto(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wt := int(key>>3), int(key&7)
		switch wt {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(field, wt, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, wt, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
	}
	return nil
}
