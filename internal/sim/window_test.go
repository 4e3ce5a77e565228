package sim

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"moca/internal/cpu"
	"moca/internal/event"
	"moca/internal/mem"
	"moca/internal/workload"
)

// mixProcs is a 4-core mix small enough to run thousands of windows
// quickly.
func mixProcs() []ProcSpec {
	return []ProcSpec{
		{App: workload.MCF(), Input: workload.Ref},
		{App: workload.Milc(), Input: workload.Ref},
		{App: workload.GCC(), Input: workload.Ref},
		{App: workload.LBM(), Input: workload.Ref},
	}
}

// TestCancelMidWindow cancels the context while a 4-core run is deep in
// its measurement phase: the run must surface the cancellation as an error
// promptly, from the next window barrier.
func TestCancelMidWindow(t *testing.T) {
	cfg := DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed)
	sys, err := New(cfg, mixProcs())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		// A quota far beyond what 30 ms of wall clock can simulate: the
		// only way out is the cancellation.
		_, err := sys.RunContext(ctx, 0, 50_000_000)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run completed despite cancellation")
		}
		if !strings.Contains(err.Error(), "canceled") {
			t.Fatalf("error %q does not report the cancellation", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled run did not return")
	}
}

// panicStream explodes after feeding n instructions.
type panicStream struct {
	n int
}

func (p *panicStream) Next() (cpu.Instr, bool) {
	if p.n <= 0 {
		panic("panicStream: injected shard failure")
	}
	p.n--
	return cpu.Instr{Kind: cpu.Compute, N: 1}, true
}

// TestPanickingShard injects a panic into one core of a 4-core run: the
// run must recover it into an error keyed with the failing core instead
// of crashing the process.
func TestPanickingShard(t *testing.T) {
	const victim = 2
	procs := mixProcs()
	procs[victim].Stream = &panicStream{n: 400}
	cfg := DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed)
	sys, err := New(cfg, procs)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := sys.Run(0, 10_000)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run succeeded despite a panicking shard")
		}
		msg := err.Error()
		if !strings.Contains(msg, fmt.Sprintf("core shard %d", victim)) {
			t.Errorf("error %q is not keyed to core shard %d", msg, victim)
		}
		if !strings.Contains(msg, "panic") || !strings.Contains(msg, "injected shard failure") {
			t.Errorf("error %q does not carry the recovered panic", msg)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("panicking shard hung the run")
	}
}

// FuzzWindowMerge feeds random per-source message batches into the barrier
// merge: the merged sequence must be totally ordered by (at, src, seq) —
// which preserves each source's staging order within equal timestamps —
// and lossless.
func FuzzWindowMerge(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x42}, uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, nsrc uint8) {
		srcs := int(nsrc%8) + 1

		// Decode the fuzz bytes into per-source batches. Timestamps are
		// drawn from a tiny range so collisions across sources are common —
		// ties are where ordering bugs hide.
		links := make([]*shardLink, srcs)
		for s := range links {
			links[s] = &shardLink{src: s, out: make([][]linkMsg, 1)}
		}
		staged := make([]int, srcs)
		for i, b := range raw {
			src := (i + int(b)) % srcs
			links[src].out[0] = append(links[src].out[0], linkMsg{
				at:   event.Time(b % 7),
				line: uint64(b) << 3,
				src:  src,
				seq:  uint64(staged[src]),
			})
			staged[src]++
		}
		merged := mergeWindow(nil, links, 0)

		// The merge must be totally ordered by (at, src, seq) ...
		for i := 1; i < len(merged); i++ {
			if linkMsgLess(merged[i], merged[i-1]) {
				t.Fatalf("merge not sorted at %d: %+v before %+v", i, merged[i-1], merged[i])
			}
		}
		// ... and lossless: per-source counts must round-trip.
		perSrc := make([]int, srcs)
		for _, m := range merged {
			perSrc[m.src]++
		}
		for s := range staged {
			if perSrc[s] != staged[s] {
				t.Fatalf("source %d: staged %d messages, merged %d", s, staged[s], perSrc[s])
			}
			if len(links[s].out[0]) != 0 {
				t.Fatalf("source %d: stage not cleared by the merge", s)
			}
		}
	})
}
