package sim

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"moca/internal/cache"
	"moca/internal/cpu"
	"moca/internal/event"
	"moca/internal/mem"
	"moca/internal/vm"
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
// promptly, from the next window boundary.
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

// accessTimes records when a hierarchy reports access completions.
type accessTimes []event.Time

func (a *accessTimes) AccessDone(_ uint64, at event.Time, _ cache.Level) { *a = append(*a, at) }

// TestLinkTiming pins the two cross-shard timings the window engine rests
// on, which the goldens only pin in aggregate: a submission staged at core
// time t reaches its channel at exactly t + windowCycles cycles (and the
// migration monitor counts it then, not when it is staged), and a
// controller completion at time c enters the core's hierarchy at exactly c.
func TestLinkTiming(t *testing.T) {
	cycle := cpu.DefaultConfig().Cycle
	route := &router{base: []int{0}, nchan: []int{1}, gran: []uint64{cache.LineBytes}}
	sinks := make([]mem.DoneSink, 1)
	cs, err := newChanShard(func(q *event.Queue) (*mem.Controller, error) {
		return mem.NewController("link-test", q, mem.ChannelConfig{
			Device: mem.Preset(mem.DDR3), CapacityBytes: 1 << 20,
		})
	}, route, sinks, cycle)
	if err != nil {
		t.Fatal(err)
	}
	var counted []event.Time
	route.onAccess = func(uint64) { counted = append(counted, cs.q.Now()) }

	cq := event.NewQueue()
	link := &shardLink{q: cq, route: route, chans: []*chanShard{cs}, delay: windowCycles * cycle}
	hcfg := cache.DefaultHierarchyConfig(0)
	hcfg.CPUCycle = cycle
	hier, err := cache.NewHierarchy(cq, link, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &coreCtx{q: cq, hier: hier}
	sinks[0] = c

	// A load miss reaches the link after both lookup latencies. The start
	// time is off the cycle grid: the link adds one window to any time.
	cq.AdvanceTo(1000*cycle + 3)
	var done accessTimes
	hier.Access(vm.Compose(0, 5, 0), 0, false, &done, 1)
	staged, ok := cq.NextTime()
	if !ok {
		t.Fatal("load miss scheduled no submission")
	}
	cq.RunUntil(staged)
	if cs.q.Len() != 1 {
		t.Fatalf("channel queue holds %d events after one submission, want 1", cs.q.Len())
	}
	if at, _ := cs.q.NextTime(); at != staged+windowCycles*cycle {
		t.Fatalf("submission staged at %d delivered at %d, want %d", staged, at, staged+windowCycles*cycle)
	}
	if len(counted) != 0 {
		t.Fatalf("access counted at staging time %v, want at delivery", counted)
	}
	cs.q.RunUntil(staged + windowCycles*cycle)
	if len(counted) != 1 || counted[0] != staged+windowCycles*cycle {
		t.Fatalf("access counted at %v, want [%d]", counted, staged+windowCycles*cycle)
	}

	// Run the channel until the completion is posted to the core.
	for cq.Len() == 0 {
		if !cs.q.RunOne() {
			t.Fatal("channel ran dry without completing the request")
		}
	}
	completed := cs.q.Now()
	if at, _ := cq.NextTime(); at != completed {
		t.Fatalf("completion at %d posted to the core at %d", completed, at)
	}
	cq.RunUntil(completed - 1)
	if len(done) != 0 {
		t.Fatalf("load completed at %v, before the memory completion at %d", done, completed)
	}
	cq.RunUntil(completed)
	if len(done) != 1 || done[0] != completed {
		t.Fatalf("load completed at %v, want [%d]", done, completed)
	}
}
