package sim

import (
	"bytes"
	"testing"

	"moca/internal/cpu"
	"moca/internal/heap"
	"moca/internal/mem"
	"moca/internal/trace"
	"moca/internal/workload"
)

// sliceStream replays recorded items through Next alone, with no batch or
// borrow path: the reference the block reader's replay must match.
type sliceStream struct{ items []cpu.Instr }

func (s *sliceStream) Next() (cpu.Instr, bool) {
	if len(s.items) == 0 {
		return cpu.Instr{}, false
	}
	in := s.items[0]
	s.items = s.items[1:]
	return in, true
}

func (s *sliceStream) Err() error { return nil }

// TestTraceV2ReplayByteIdentical is the format-parity acceptance test:
// the recorded items replayed item by item from memory, through the v2
// block reader, and through a v2 reader resumed at a mid-trace block
// boundary (against the in-memory items from the same item on) must
// produce byte-identical Result JSON. The v2 path exercises block
// framing, the batch-refill hot path, and positioned reopen — none of
// which may perturb simulation output.
func TestTraceV2ReplayByteIdentical(t *testing.T) {
	spec := workload.Tracking()
	baseProc := ProcSpec{App: spec, Input: workload.Ref}
	newCfg := func() Config {
		cfg := DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed)
		cfg.Obs.Metrics = true
		return cfg
	}
	run := func(stream trace.ReplayStream, warmup uint64) []byte {
		proc := baseProc
		proc.Stream = stream
		sys, err := New(newCfg(), []ProcSpec{proc})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(warmup, goldenMeasure)
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.Err(); err != nil {
			t.Fatalf("stream error after replay: %v", err)
		}
		raw, err := res.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	probe, err := New(newCfg(), []ProcSpec{baseProc})
	if err != nil {
		t.Fatal(err)
	}
	warm := probe.SuggestedWarmup()

	// Record the generator stream with small blocks so the corpus spans
	// many frames. Slack covers in-flight fetches past the final quota
	// crossing.
	scratch := heap.New(heap.Config{NamingDepth: baseProc.NamingDepth, Classes: baseProc.Classes})
	app, err := workload.Instantiate(spec.ForInput(workload.Ref), scratch, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := warm + goldenMeasure + 50_000
	gen := app.Stream()
	items := make([]cpu.Instr, total)
	for i := range items {
		in, ok := gen.Next()
		if !ok {
			t.Fatalf("generator ended at item %d", i)
		}
		if in.Kind == cpu.Compute && in.N < 1 {
			in.N = 1 // the trace encoding clamps batches the same way
		}
		items[i] = in
	}
	var v2 bytes.Buffer
	w2, err := trace.NewBlockWriterSize(&v2, 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := trace.Record(w2, &sliceStream{items}, total); err != nil || n != total {
		t.Fatalf("record: %d items, %v; want %d", n, err, total)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// Whole-trace parity.
	want := run(&sliceStream{items}, warm)
	r2, err := trace.Open(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := run(r2, warm); !bytes.Equal(got, want) {
		t.Errorf("v2 replay result JSON diverges from the recorded items:\nv2    %s\nitems %s", got, want)
	}

	// Resume parity: reopen the v2 trace at the first block boundary past
	// item 10000 — without decoding the prefix — and compare against the
	// in-memory items from the same item on. Both see the identical
	// suffix, so both simulations must serialize identically.
	sc, err := trace.NewBlockScanner(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var pos trace.Position
	for sc.Scan() {
		if sc.NextPos().Seq >= 10_000 {
			pos = sc.NextPos()
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if pos.IsZero() {
		t.Fatal("no block boundary past item 10000")
	}

	wantResumed := run(&sliceStream{items[pos.Seq:]}, warm)
	br, err := trace.OpenBlockReaderAt(bytes.NewReader(v2.Bytes()), pos)
	if err != nil {
		t.Fatal(err)
	}
	if got := run(br, warm); !bytes.Equal(got, wantResumed) {
		t.Errorf("resumed v2 replay (from %+v) diverges from the item suffix:\nv2    %s\nitems %s", pos, got, wantResumed)
	}
}
