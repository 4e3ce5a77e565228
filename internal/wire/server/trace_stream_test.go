package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"moca/internal/exp"
	"moca/internal/heap"
	"moca/internal/sim"
	"moca/internal/trace"
	"moca/internal/wire"
	"moca/internal/wire/client"
	"moca/internal/workload"
)

// traceStartSpec is the session every connection in the resume test
// repeats: the server rejects a re-attach whose system/app diverge.
func traceStartSpec() wire.TraceStart {
	return wire.TraceStart{
		Session: "resume-e2e",
		System:  "ddr3",
		App:     "mcf",
		Measure: testMeasure,
	}
}

// recordTrace records the first total items of the app's generator
// stream to path as a v2 block trace of blockItems-item blocks.
func recordTrace(t *testing.T, path string, appSpec workload.AppSpec, total uint64, blockItems int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	app, err := workload.Instantiate(appSpec.ForInput(workload.Ref), heap.New(heap.Config{}), 0)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := trace.NewBlockWriterSize(f, blockItems, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Record(bw, app.Stream(), total); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTraceStreamResume is the trace-streaming acceptance test: a client
// pushes a v2 block trace into a server-side simulation, drops the TCP
// connection abruptly mid-corpus, reconnects under the same session
// token, is told exactly which block boundary to resume from, pushes the
// remainder, and receives result bytes identical to a local run over the
// same trace file.
func TestTraceStreamResume(t *testing.T) {
	def, err := exp.SystemByName("ddr3")
	if err != nil {
		t.Fatal(err)
	}
	appSpec, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("unknown application mcf")
	}
	newCfg := func() sim.Config {
		return sim.DefaultConfig(def.Name, def.Modules, def.Policy)
	}

	// The warmup suggestion depends only on the configuration.
	probe, err := sim.New(newCfg(), []sim.ProcSpec{{App: appSpec, Input: workload.Ref}})
	if err != nil {
		t.Fatal(err)
	}
	warm := probe.SuggestedWarmup()

	// Record the app's generator stream as a v2 block trace with small
	// blocks so the corpus spans many frames; the slack covers in-flight
	// fetches past the final quota crossing.
	const blockItems = 4096
	total := warm + testMeasure + 50_000
	path := filepath.Join(t.TempDir(), "mcf.trace")
	recordTrace(t, path, appSpec, total, blockItems)

	// Local reference: the same simulation fed from the same trace file.
	want := func() []byte {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		br, err := trace.NewBlockReader(f)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := sim.New(newCfg(), []sim.ProcSpec{{App: appSpec, Input: workload.Ref, Stream: br}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunContext(context.Background(), warm, testMeasure)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := res.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}()

	_, addr := startServer(t, Config{DrainTimeout: 5 * time.Second, TraceIdleTimeout: time.Minute})

	// First connection: push roughly half the blocks, then vanish without
	// TRACE_END or CANCEL — a crash, not a goodbye.
	c1, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j1, pos, err := c1.TraceStart(traceStartSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !pos.IsZero() {
		t.Fatalf("fresh session resumes from %+v, want zero", pos)
	}
	var acked trace.Position
	func() {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc, err := trace.NewBlockScanner(f)
		if err != nil {
			t.Fatal(err)
		}
		half := int(total) / blockItems / 2
		for i := 0; i < half && sc.Scan(); i++ {
			acked, err = c1.PushTraceBlock(j1, sc.NextPos().ByteOff, sc.Frame())
			if err != nil {
				t.Fatalf("push block %d: %v", i, err)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}()
	if acked.Seq == 0 {
		t.Fatal("no blocks acknowledged before the disconnect")
	}
	c1.Close()

	// Reconnect under the same token. The server may still be reaping the
	// dead connection; a brief CodeBusy window is part of the contract.
	var (
		c2     *client.Client
		j2     *client.Job
		resume trace.Position
	)
	deadline := time.Now().Add(10 * time.Second)
	for {
		c2, err = client.Dial(addr, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		j2, resume, err = c2.TraceStart(traceStartSpec())
		if err == nil {
			break
		}
		c2.Close()
		var re *client.RemoteError
		if !errors.As(err, &re) || re.Code != wire.CodeBusy || time.Now().After(deadline) {
			t.Fatalf("re-attach: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer c2.Close()
	if resume != acked {
		t.Fatalf("server resumes from %+v, want last acked %+v", resume, acked)
	}

	// Push the remainder from exactly the acknowledged boundary, declare
	// the end, and collect the result.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := c2.PushTrace(j2, f, resume, nil); err != nil {
		t.Fatal(err)
	}
	res, err := c2.TraceEnd(context.Background(), j2)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("nil result from TraceEnd")
	}
	if !bytes.Equal(j2.Raw, want) {
		t.Errorf("remote result bytes diverge from the local run over the same trace:\nremote %s\nlocal  %s", j2.Raw, want)
	}
}

// TestTraceSessionBusy: a session can only be attached from one
// connection at a time; a second concurrent TraceStart is refused with
// CodeBusy rather than silently hijacking the stream.
func TestTraceSessionBusy(t *testing.T) {
	_, addr := startServer(t, Config{DrainTimeout: time.Second, TraceIdleTimeout: time.Minute})

	c1, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, _, err := c1.TraceStart(traceStartSpec()); err != nil {
		t.Fatal(err)
	}

	c2, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, _, err = c2.TraceStart(traceStartSpec())
	var re *client.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeBusy {
		t.Fatalf("second attach: %v, want %s", err, wire.CodeBusy)
	}

	// The same connection may also not mismatch the session's fixed spec.
	c3, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	spec := traceStartSpec()
	spec.App = "libquantum"
	_, _, err = c3.TraceStart(spec)
	if !errors.As(err, &re) || re.Code != wire.CodeBusy {
		// Busy wins over mismatch while attached; either refusal is fine,
		// what matters is that it is refused.
		if !errors.As(err, &re) || re.Code != wire.CodeBadReq {
			t.Fatalf("mismatched attach: %v, want a refusal", err)
		}
	}
}

// TestTraceSessionRelease: a session whose RESULT reached its client
// leaves the server's table at once instead of holding its decoded
// batches until the idle reaper fires, and shutdown terminates the
// detached sessions still waiting on their idle timers.
func TestTraceSessionRelease(t *testing.T) {
	appSpec, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("unknown application mcf")
	}
	def, err := exp.SystemByName("ddr3")
	if err != nil {
		t.Fatal(err)
	}
	probe, err := sim.New(sim.DefaultConfig(def.Name, def.Modules, def.Policy),
		[]sim.ProcSpec{{App: appSpec, Input: workload.Ref}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mcf.trace")
	recordTrace(t, path, appSpec, probe.SuggestedWarmup()+testMeasure+50_000, 4096)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{DrainTimeout: 5 * time.Second, TraceIdleTimeout: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	sessions := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.traces)
	}

	push := func(c *client.Client, token string) *client.Job {
		spec := traceStartSpec()
		spec.Session = token
		j, from, err := c.TraceStart(spec)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := c.PushTrace(j, f, from, nil); err != nil {
			t.Fatal(err)
		}
		return j
	}
	for _, token := range []string{"done-1", "done-2"} {
		c, err := client.Dial(ln.Addr().String(), client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.TraceEnd(context.Background(), push(c, token)); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	// The release follows the RESULT write, so the client may see the
	// frame a moment before the table empties.
	deadline := time.Now().Add(10 * time.Second)
	for sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d trace session(s) still held after their results were delivered", sessions())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A session abandoned without TRACE_END stays for a re-attach, on its
	// idle timer, until shutdown terminates it.
	c, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	push(c, "detached")
	srv.mu.Lock()
	ts := srv.traces["detached"]
	srv.mu.Unlock()
	c.Close()
	if ts == nil {
		t.Fatal("the detached session is not in the table")
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		ts.mu.Lock()
		armed := ts.idle != nil
		ts.mu.Unlock()
		if armed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the detached session never armed its idle timer")
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not drain within 30s")
	}
	if n := sessions(); n != 0 {
		t.Errorf("%d trace session(s) left after shutdown", n)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.idle != nil || !ts.removed {
		t.Error("shutdown left the detached session's idle timer pending")
	}
}
