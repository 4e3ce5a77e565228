package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"moca/internal/cpu"
	"moca/internal/heap"
	"moca/internal/workload"
)

// encodeV1 returns the v1 file encoding of items: the header, one
// opcode+varint record per item with the delta state running across the
// whole file, and the end opcode. The package only reads v1; tests build
// their v1 inputs here.
func encodeV1(items []cpu.Instr) []byte {
	out := append([]byte(Magic), version)
	var lastAddr, lastObj uint64
	for _, in := range items {
		var err error
		if out, err = appendItem(out, in, &lastAddr, &lastObj); err != nil {
			panic(err)
		}
	}
	return append(out, opEnd)
}

// decodeBoth replays items through the v1 reader and through a v2 block
// round trip with small blocks. It returns the v1 decode and whether the
// v2 decode yielded the identical items.
func decodeBoth(ins []cpu.Instr) (out []cpu.Instr, same bool, err error) {
	r, err := NewReader(bytes.NewReader(encodeV1(ins)))
	if err != nil {
		return nil, false, err
	}
	for {
		in, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, in)
	}
	if err := r.Err(); err != nil {
		return nil, false, err
	}
	var buf bytes.Buffer
	w, err := NewBlockWriterSize(&buf, 5, 0)
	if err != nil {
		return nil, false, err
	}
	for _, in := range ins {
		if err := w.Append(in); err != nil {
			return nil, false, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, false, err
	}
	br, err := NewBlockReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, false, err
	}
	same = true
	for i := 0; ; i++ {
		in, ok := br.Next()
		if !ok {
			same = same && i == len(out)
			break
		}
		same = same && i < len(out) && in == out[i]
	}
	if err := br.Err(); err != nil {
		return nil, false, err
	}
	return out, same, nil
}

func roundTrip(t *testing.T, ins []cpu.Instr) []cpu.Instr {
	t.Helper()
	out, same, err := decodeBoth(ins)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatal("v1 and v2 decodes of the same items differ")
	}
	return out
}

func TestRoundTripBasic(t *testing.T) {
	ins := []cpu.Instr{
		{Kind: cpu.Compute, N: 7},
		{Kind: cpu.Load, VAddr: 0x1000, Obj: 3},
		{Kind: cpu.Load, VAddr: 0x1008, Obj: 3, DependsOnPrev: true},
		{Kind: cpu.Store, VAddr: 0x7FFF0000_0000, Obj: 0},
		{Kind: cpu.Compute, N: 1},
		{Kind: cpu.Load, VAddr: 0x2000_0000_0000, Obj: 4},
	}
	out := roundTrip(t, ins)
	if len(out) != len(ins) {
		t.Fatalf("replayed %d instructions, want %d", len(out), len(ins))
	}
	for i := range ins {
		want := ins[i]
		if want.Kind == cpu.Compute && want.N < 1 {
			want.N = 1
		}
		if out[i] != want {
			t.Errorf("instr %d: got %+v, want %+v", i, out[i], want)
		}
	}
}

func TestRecordFromWorkload(t *testing.T) {
	a := heap.New(heap.Config{})
	app, err := workload.Instantiate(workload.GCC(), a, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, _ := NewBlockWriter(&buf)
	n, err := Record(w, app.Stream(), 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20_000 {
		t.Fatalf("recorded %d, want 20000", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 20_000 {
		t.Errorf("Count = %d", w.Count())
	}
	// Compression sanity: delta+varint should beat 16 bytes/instr easily.
	if perInstr := float64(buf.Len()) / 20_000; perInstr > 8 {
		t.Errorf("trace uses %.1f bytes/instruction; expected compact encoding", perInstr)
	}

	// Replay must equal a fresh generation of the same stream.
	a2 := heap.New(heap.Config{})
	app2, _ := workload.Instantiate(workload.GCC(), a2, 0)
	fresh := app2.Stream()
	r, err := NewBlockReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		got, ok := r.Next()
		if !ok {
			t.Fatalf("trace ended at %d", i)
		}
		want, _ := fresh.Next()
		if want.Kind == cpu.Compute && want.N < 1 {
			want.N = 1
		}
		if got != want {
			t.Fatalf("instr %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, ok := r.Next(); ok {
		t.Error("trace longer than recorded")
	}
	if err := r.Err(); err != nil {
		t.Error(err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("MOCA"))); err == nil {
		t.Error("truncated header accepted")
	}
	bad := append([]byte(Magic), 99) // wrong version
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Error("wrong version accepted")
	}
	// Unknown opcode after a valid header.
	evil := append([]byte(Magic), 1, 200)
	r, err := NewReader(bytes.NewReader(evil))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok {
		t.Error("unknown opcode produced an instruction")
	}
	if r.Err() == nil {
		t.Error("no decode error reported")
	}
}

func TestTruncatedTraceStopsCleanly(t *testing.T) {
	data := encodeV1([]cpu.Instr{{Kind: cpu.Load, VAddr: 0x40, Obj: 1}})
	data = data[:len(data)-2] // drop the end marker and a byte
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	// A truncated tail is an error; a clean EOF right at an opcode
	// boundary would not be.
	if r.Err() == nil {
		t.Log("note: truncation landed on an opcode boundary")
	}
}

func TestAppendAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewBlockWriter(&buf)
	w.Close()
	if err := w.Append(cpu.Instr{Kind: cpu.Compute, N: 1}); err == nil {
		t.Error("append after close accepted")
	}
}

func TestLoopRestartsStream(t *testing.T) {
	var ins []cpu.Instr
	for i := 0; i < 5; i++ {
		ins = append(ins, cpu.Instr{Kind: cpu.Load, VAddr: uint64(i) * 64, Obj: 1})
	}
	data := encodeV1(ins)

	loop := NewLoop(func() (cpu.Stream, error) {
		return NewReader(bytes.NewReader(data))
	})
	var addrs []uint64
	for i := 0; i < 12; i++ {
		in, ok := loop.Next()
		if !ok {
			t.Fatalf("loop ended at %d", i)
		}
		addrs = append(addrs, in.VAddr)
	}
	for i := 0; i < 12; i++ {
		if addrs[i] != uint64(i%5)*64 {
			t.Fatalf("loop sequence wrong at %d: %v", i, addrs)
		}
	}
}

// TestLoopStopsOnDecodeError: a corrupt trace must terminate the loop
// with its decode error, not replay the valid prefix forever.
func TestLoopStopsOnDecodeError(t *testing.T) {
	var ins []cpu.Instr
	for i := 0; i < 3; i++ {
		ins = append(ins, cpu.Instr{Kind: cpu.Load, VAddr: uint64(i) * 64, Obj: 1})
	}
	data := encodeV1(ins)
	// Corrupt the end marker into an unknown opcode: the valid prefix
	// still decodes, then the stream errors instead of ending cleanly.
	data[len(data)-1] = 200

	opens := 0
	loop := NewLoop(func() (cpu.Stream, error) {
		opens++
		return NewReader(bytes.NewReader(data))
	})
	var n int
	for {
		if _, ok := loop.Next(); !ok {
			break
		}
		n++
		if n > 10 {
			t.Fatal("loop replays a corrupt trace forever")
		}
	}
	if n != 3 {
		t.Errorf("decoded %d instructions before the error, want 3", n)
	}
	if loop.Err() == nil {
		t.Error("loop swallowed the decode error")
	}
	if opens != 1 {
		t.Errorf("corrupt stream reopened %d times, want 1", opens)
	}
	// The loop stays terminated.
	if _, ok := loop.Next(); ok {
		t.Error("loop resumed after a terminal error")
	}
}

// TestLoopStopsOnTruncation: a trace cut off mid-record terminates the
// loop with an error rather than restarting.
func TestLoopStopsOnTruncation(t *testing.T) {
	data := encodeV1([]cpu.Instr{
		{Kind: cpu.Load, VAddr: 0x1234_5678, Obj: 7},
		{Kind: cpu.Load, VAddr: 0x9abc_def0, Obj: 9},
	})
	data = data[:len(data)-3] // cut into the last record's varints

	loop := NewLoop(func() (cpu.Stream, error) {
		return NewReader(bytes.NewReader(data))
	})
	for i := 0; ; i++ {
		if _, ok := loop.Next(); !ok {
			break
		}
		if i > 10 {
			t.Fatal("loop replays a truncated trace forever")
		}
	}
	if loop.Err() == nil {
		t.Error("loop swallowed the truncation error")
	}
}

// TestLoopReportsOpenError: a failing factory must surface its error.
func TestLoopReportsOpenError(t *testing.T) {
	wantErr := bytes.ErrTooLarge // any sentinel
	loop := NewLoop(func() (cpu.Stream, error) {
		return nil, wantErr
	})
	if _, ok := loop.Next(); ok {
		t.Fatal("failed open produced an instruction")
	}
	if err := loop.Err(); err == nil {
		t.Error("loop swallowed the open error")
	}
}

// Property: arbitrary instruction sequences survive the round trip in
// both formats.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		var ins []cpu.Instr
		var lastWasLoad bool
		for _, r := range raw {
			switch r % 3 {
			case 0:
				ins = append(ins, cpu.Instr{Kind: cpu.Compute, N: int32(r%1000) + 1})
				lastWasLoad = false
			case 1:
				ins = append(ins, cpu.Instr{
					Kind: cpu.Load, VAddr: uint64(r) * 13, Obj: uint64(r % 17),
					DependsOnPrev: lastWasLoad && r%2 == 0,
				})
				lastWasLoad = true
			case 2:
				ins = append(ins, cpu.Instr{Kind: cpu.Store, VAddr: uint64(r) * 7, Obj: uint64(r % 5)})
				lastWasLoad = false
			}
		}
		out, same, err := decodeBoth(ins)
		if err != nil || !same || len(out) != len(ins) {
			return false
		}
		for i, want := range ins {
			if out[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
