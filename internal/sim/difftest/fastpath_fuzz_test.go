package difftest

import (
	"testing"

	"moca/internal/cpu"
	"moca/internal/mem"
	"moca/internal/sim"
	"moca/internal/workload"
)

// FuzzFastpathBatching drives the common-case fast path with adversarial
// instruction streams: compute runs of fuzz-chosen lengths interleaved
// with loads whose addresses are steered to produce cache hits (the
// inline-probe path), fresh-line misses (batch abort into the event
// engine), and far-stride row conflicts (long, windows-spanning memory
// latencies). The slow path — fast path disabled — must produce
// byte-identical results for every decoded stream.
func FuzzFastpathBatching(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0xc3, 0x04, 0x45, 0x86, 0xc7})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x42, 0x13, 0x37})
	f.Add([]byte{0x01})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 512 {
			raw = raw[:512]
		}

		// Decode the fuzz bytes into an instruction stream. The upper
		// bits of each byte pick run lengths and strides; the low two
		// bits pick the instruction shape. last tracks the previous
		// load so "hit" steps re-touch a line that is warm by
		// construction, while the far stride hops DRAM rows to make
		// the miss latency span window barriers.
		var ins []cpu.Instr
		var total uint64
		last := uint64(1 << 20)
		next := last
		for _, b := range raw {
			arg := uint64(b >> 2)
			switch b & 3 {
			case 0: // compute run: the batchable common case
				n := int(arg) + 1
				ins = append(ins, cpu.Instr{Kind: cpu.Compute, N: int32(n)})
				total += uint64(n)
			case 1: // re-touch the previous line: inline hit
				ins = append(ins, cpu.Instr{Kind: cpu.Load, VAddr: last, Obj: 1})
				total++
			case 2: // short stride: new line, same or nearby row
				next += (arg + 1) * 64
				last = next
				dep := b&0x40 != 0
				ins = append(ins, cpu.Instr{Kind: cpu.Load, VAddr: last, Obj: 2, DependsOnPrev: dep})
				total++
			case 3: // far stride: row conflict / fresh page
				next += (arg + 1) << 16
				last = next
				ins = append(ins, cpu.Instr{Kind: cpu.Store, VAddr: last, Obj: 3})
				total++
			}
		}
		// Pad with compute so the stream always covers the measured
		// quota: the interesting axis is batching behavior, not the
		// (already matrix-covered) identical-exhaustion-error case.
		ins = append(ins, cpu.Instr{Kind: cpu.Compute, N: 64})
		total += 64

		cfg := sim.DefaultConfig("fuzz-fastpath", sim.Homogeneous(mem.DDR3), sim.PolicyFixed)
		cfg.CacheL2.SizeBytes /= 4 // shrink L2 so far strides actually miss
		c := Case{
			Name:    "fuzz-fastpath",
			Cfg:     cfg,
			Procs:   []sim.ProcSpec{{App: workload.MCF(), Input: workload.Ref}},
			Streams: []func() cpu.Stream{FixedStream(ins...)},
			Measure: total,
		}

		d, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if d != nil {
			t.Fatalf("fast path diverged on fuzzed stream (%d instrs):\n%s", total, d)
		}
	})
}
