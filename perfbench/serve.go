package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"moca/internal/exp"
	"moca/internal/heap"
	"moca/internal/obs"
	"moca/internal/sim"
	"moca/internal/stats"
	"moca/internal/trace"
	"moca/internal/wire"
	"moca/internal/wire/client"
	"moca/internal/wire/server"
	"moca/internal/workload"
)

// The request classes of the serving mix. Memo keys are answered from the
// server's in-memory memo, disk keys are stored in its run cache before the
// pass and first touched during it, cold keys are never seen before the
// pass (they simulate and write the cache), and trace sessions push a
// recorded v2 trace block by block. Config keys name a capacity
// configuration (moca@config2) whose config1 twin is in the memo: they are
// never-seen keys too, and check that the server does not answer them with
// the twin's result. The benchmark sends none unless --config-probes is
// given: the server answers them wrongly (see perfbench/README.md), and a
// benchmark workload must be one on which no operation fails.
const (
	reqMemo = iota
	reqDisk
	reqCold
	reqTrace
	reqConfig
	numKinds
)

var kindNames = [numKinds]string{"memo", "disk", "cold", "trace", "config"}

// skey is one run key: what a SUBMIT names.
type skey struct {
	system, app string
	measure     uint64
}

func (k skey) String() string { return fmt.Sprintf("%s/%s@%d", k.system, k.app, k.measure) }

type request struct {
	kind    int
	key     skey
	session string // trace sessions only
}

// servePlan fixes which keys belong to which class, the same for every
// seed so the work of a pass is constant. Two quotas split the key space
// across two server runners; the moca keys of both are the memo set, so
// warming the memo warms both runners.
type servePlan struct {
	apps                     []string
	memo, disk, cold, config []skey
	trace                    skey
}

func newPlan(sc scale) (*servePlan, error) {
	p := &servePlan{apps: sc.ServeApps}
	if p.apps == nil {
		p.apps = workload.Names()
	}
	a, b := sc.ServeMeasure, sc.ServeMeasure+sc.ServeMeasure/10
	for _, app := range p.apps {
		p.memo = append(p.memo, skey{"moca", app, a}, skey{"moca", app, b})
		p.disk = append(p.disk, skey{"ddr3", app, a}, skey{"heter-app", app, a})
		for _, sys := range []string{"rl", "hbm", "lp", "migrate"} {
			p.cold = append(p.cold, skey{sys, app, a})
		}
		for _, sys := range []string{"ddr3", "rl", "hbm", "lp", "heter-app", "migrate"} {
			p.cold = append(p.cold, skey{sys, app, b})
		}
		if sc.ConfigPerRound > 0 {
			p.config = append(p.config, skey{"moca@config2", app, a})
		}
	}
	p.trace = skey{"ddr3", sc.TraceApp, a}
	for _, c := range []struct {
		class      string
		need, have int
	}{
		{"cold", sc.Rounds * sc.ColdPerRound, len(p.cold)},
		{"disk", sc.Rounds * sc.DiskPerRound, len(p.disk)},
		{"config", sc.Rounds * sc.ConfigPerRound, len(p.config)},
	} {
		if c.need > c.have {
			return nil, fmt.Errorf("serve: %d %s requests need more than %d %s keys", c.need, c.class, c.have, c.class)
		}
	}
	return p, nil
}

// sequence draws one pass's rounds from the seeded generator: each round
// holds ConfigPerRound config, ColdPerRound cold and DiskPerRound disk keys
// not used before in the pass, MemoPerRound repeats of random memo keys
// and TracePerRound trace sessions, in shuffled order.
func (p *servePlan) sequence(sc scale, rng *rand.Rand, pass int) [][]request {
	shuffled := func(keys []skey) []skey {
		out := append([]skey(nil), keys...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	cold, disk, config := shuffled(p.cold), shuffled(p.disk), shuffled(p.config)
	var rounds [][]request
	for r := 0; r < sc.Rounds; r++ {
		var round []request
		for _, k := range config[r*sc.ConfigPerRound : (r+1)*sc.ConfigPerRound] {
			round = append(round, request{kind: reqConfig, key: k})
		}
		for _, k := range cold[r*sc.ColdPerRound : (r+1)*sc.ColdPerRound] {
			round = append(round, request{kind: reqCold, key: k})
		}
		for _, k := range disk[r*sc.DiskPerRound : (r+1)*sc.DiskPerRound] {
			round = append(round, request{kind: reqDisk, key: k})
		}
		for i := 0; i < sc.MemoPerRound; i++ {
			round = append(round, request{kind: reqMemo, key: p.memo[rng.Intn(len(p.memo))]})
		}
		for i := 0; i < sc.TracePerRound; i++ {
			round = append(round, request{kind: reqTrace, key: p.trace,
				session: fmt.Sprintf("pass%d-round%d-%d", pass, r, i)})
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		rounds = append(rounds, round)
	}
	return rounds
}

// serveEnv is the product of set-up: a store directory holding every
// app's profile and the disk keys' results, the local reference result of
// every key, and a recorded trace with its local replay. Each pass serves
// from a fresh server over a copy of the store.
type serveEnv struct {
	sc      scale
	plan    *servePlan
	metrics bool // every run carries its observability snapshot
	dir     string
	writer  *exp.Runner // stored the profiles and disk keys
	refs    map[skey][]byte
	refRes  map[skey]*sim.Result
	runMS   []float64 // local reference simulations (exp.run_ms spans)

	traceData  []byte
	traceItems uint64
	traceRef   []byte

	servers int
}

func (env *serveEnv) storeDir() string { return filepath.Join(env.dir, "store") }

// serveSetup computes everything a pass needs and starts the first
// server.
func serveSetup(sc scale, p *servePlan, idx int, metrics bool) (env *serveEnv, srv *serveServer, err error) {
	env = &serveEnv{
		sc:      sc,
		plan:    p,
		metrics: metrics,
		dir:     filepath.Join(workRoot, fmt.Sprintf("serve-%d-%d", os.Getpid(), idx)),
		refs:    map[skey][]byte{},
		refRes:  map[skey]*sim.Result{},
	}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	os.RemoveAll(env.dir)
	store, err := exp.OpenRunCache(env.storeDir(), exp.CacheReadWrite)
	if err != nil {
		return env, nil, err
	}

	// Every app's profile and the disk keys' results go into the store.
	w := exp.NewRunner()
	w.Measure, w.FW.ProfileWindow, w.Cache = sc.ServeMeasure, sc.ServeWindow, store
	w.Obs = obs.Options{Metrics: metrics}
	env.writer = w
	if err = forEach(len(p.apps), func(i int) error {
		_, err := w.Instrument(p.apps[i])
		return err
	}); err != nil {
		return env, nil, err
	}
	if err = env.reference(p.disk, func(skey) *exp.Runner { return w }, false); err != nil {
		return env, nil, err
	}

	// Every other reference runs on a runner that reads the stored
	// profiles but writes nothing, one runner per quota and capacity
	// configuration: a runner's memo is keyed by system name, which moca
	// and moca@config2 share, so a shared runner would answer one with the
	// other's result.
	ro, err := exp.OpenRunCache(env.storeDir(), exp.CacheRead)
	if err != nil {
		return env, nil, err
	}
	type runnerID struct {
		config  string
		measure uint64
	}
	runners := map[runnerID]*exp.Runner{}
	idOf := func(k skey) runnerID {
		_, config, _ := strings.Cut(k.system, "@")
		return runnerID{config, k.measure}
	}
	var keys []skey
	for _, class := range [][]skey{p.memo, p.cold, p.config} {
		keys = append(keys, class...)
	}
	for _, k := range keys {
		if runners[idOf(k)] == nil {
			r := exp.NewRunner()
			r.Measure, r.FW.ProfileWindow, r.Cache = k.measure, sc.ServeWindow, ro
			r.Obs = obs.Options{Metrics: metrics}
			runners[idOf(k)] = r
		}
	}
	if err = env.reference(keys, func(k skey) *exp.Runner { return runners[idOf(k)] }, true); err != nil {
		return env, nil, err
	}
	if err = env.recordTrace(); err != nil {
		return env, nil, err
	}
	srv, err = env.startServer()
	return env, srv, err
}

// reference computes the local result of every key; timed runs feed the
// exp.run_ms spans.
func (env *serveEnv) reference(keys []skey, runner func(skey) *exp.Runner, timed bool) error {
	var mu sync.Mutex
	return forEach(len(keys), func(i int) error {
		k := keys[i]
		def, err := exp.SystemByName(k.system)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := runner(k).RunSingle(def, k.app)
		if err != nil {
			return err
		}
		d := ms(time.Since(t0))
		raw, err := res.MarshalJSON()
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		env.refs[k], env.refRes[k] = raw, res
		if timed {
			env.runMS = append(env.runMS, d)
		}
		return nil
	})
}

// recordTrace records the trace app's generator stream as a v2 block
// trace long enough for warmup plus the quota, and replays it locally.
func (env *serveEnv) recordTrace() error {
	k := env.plan.trace
	def, err := exp.SystemByName(k.system)
	if err != nil {
		return err
	}
	spec, ok := workload.ByName(k.app)
	if !ok {
		return fmt.Errorf("serve: unknown trace app %q", k.app)
	}
	cfg := sim.DefaultConfig(def.Name, def.Modules, def.Policy)
	probe, err := sim.New(cfg, []sim.ProcSpec{{App: spec, Input: workload.Ref}})
	if err != nil {
		return err
	}
	warm := probe.SuggestedWarmup()
	app, err := workload.Instantiate(spec.ForInput(workload.Ref), heap.New(heap.Config{}), 0)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	bw, err := trace.NewBlockWriterSize(&buf, 4096, 0)
	if err != nil {
		return err
	}
	// The slack covers in-flight fetches past the final quota crossing.
	if env.traceItems, err = trace.Record(bw, app.Stream(), warm+k.measure+50_000); err != nil {
		return err
	}
	if err := bw.Close(); err != nil {
		return err
	}
	env.traceData = buf.Bytes()

	br, err := trace.NewBlockReader(bytes.NewReader(env.traceData))
	if err != nil {
		return err
	}
	sys, err := sim.New(cfg, []sim.ProcSpec{{App: spec, Input: workload.Ref, Stream: br}})
	if err != nil {
		return err
	}
	res, err := sys.Run(warm, k.measure)
	if err != nil {
		return err
	}
	env.traceRef, err = res.MarshalJSON()
	return err
}

func (env *serveEnv) close() { os.RemoveAll(env.dir) }

// serveServer is one in-process moca-served on loopback.
type serveServer struct {
	cache  *exp.RunCache
	addr   string
	cancel context.CancelFunc
	served chan error
}

// startServer copies the store into a fresh cache directory, serves it,
// and warms the memo with the memo keys, which also loads every app's
// profile from the cache: a pass then profiles nothing.
func (env *serveEnv) startServer() (srv *serveServer, err error) {
	dir := filepath.Join(env.dir, fmt.Sprintf("server-%d", env.servers))
	env.servers++
	if err := copyFiles(dir, env.storeDir()); err != nil {
		return nil, err
	}
	srv = &serveServer{}
	if srv.cache, err = exp.OpenRunCache(dir, exp.CacheReadWrite); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := server.New(server.Config{
		Cache:         srv.cache,
		Measure:       env.sc.ServeMeasure,
		ProfileWindow: env.sc.ServeWindow,
		DrainTimeout:  10 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	srv.addr, srv.cancel, srv.served = ln.Addr().String(), cancel, make(chan error, 1)
	go func() { srv.served <- s.Serve(ctx, ln) }()

	memo := env.plan.memo
	if err := forEach(len(memo), func(i int) error {
		o := env.do(srv.addr, request{kind: reqMemo, key: memo[i]})
		if o.err != nil {
			return o.err
		}
		if !bytes.Equal(o.raw, env.refs[memo[i]]) {
			return fmt.Errorf("serve: warm-up result for %s differs from the local run", memo[i])
		}
		return nil
	}); err != nil {
		srv.close()
		return nil, err
	}
	return srv, nil
}

// copyFiles copies the regular files of directory src into a new dst.
func copyFiles(dst, src string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveServer) close() {
	s.cancel()
	<-s.served
}

// served is one request's outcome.
type served struct {
	lat, push time.Duration
	raw       []byte
	res       *sim.Result
	err       error
}

// do runs one request the way moca-sim -remote and moca-trace replay
// -remote do: one connection per job, then wait for its terminal frame.
func (env *serveEnv) do(addr string, req request) (out served) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	t0 := time.Now()
	defer func() { out.lat = time.Since(t0) }()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		out.err = err
		return out
	}
	defer c.Close()
	var j *client.Job
	if req.kind == reqTrace {
		var pos trace.Position
		j, pos, err = c.TraceStart(wire.TraceStart{
			Session: req.session, System: req.key.system, App: req.key.app, Measure: req.key.measure,
		})
		if err == nil {
			tp := time.Now()
			_, err = c.PushTrace(j, bytes.NewReader(env.traceData), pos, nil)
			out.push = time.Since(tp)
		}
		if err == nil {
			out.res, err = c.TraceEnd(ctx, j)
		}
	} else {
		out.res, j, err = c.Run(ctx, wire.Submit{
			System: req.key.system, App: req.key.app,
			Measure: req.key.measure, ProfileWindow: env.sc.ServeWindow, Metrics: env.metrics,
		}, nil)
	}
	if j != nil {
		out.raw = j.Raw
	}
	out.err = err
	return out
}

// serveRun accumulates measured passes.
type serveRun struct {
	wall     time.Duration // measured time, summed over passes
	rounds   []float64     // round walls, s
	latMS    [numKinds][]float64
	pushMS   []float64
	requests int
	instr    uint64         // measured instructions the server simulated
	bytes    int            // RESULT bytes received
	cache    exp.CacheStats // run-cache traffic during the passes
}

// pass drives one pass's rounds with a closed loop of NumCPU clients,
// each waiting for its reply before sending the next request, and checks
// every result byte for byte against its local run. It returns the first
// result received for each key.
func (env *serveEnv) pass(srv *serveServer, rounds [][]request, run *serveRun, t *tally) passResults {
	first := passResults{}
	before := srv.cache.Stats()
	for _, round := range rounds {
		outs := make([]served, len(round))
		t0 := time.Now()
		forEach(len(round), func(i int) error {
			outs[i] = env.do(srv.addr, round[i])
			return nil
		})
		d := time.Since(t0)
		run.wall += d
		run.rounds = append(run.rounds, d.Seconds())
		for i, req := range round {
			o := outs[i]
			want := env.refs[req.key]
			if req.kind == reqTrace {
				want = env.traceRef
			}
			// A wrong result still took its round trip: it is timed and
			// counted failed. A request with no result is only counted.
			if !t.check(o.err == nil, "%s %s: %v", kindNames[req.kind], req.key, o.err) {
				continue
			}
			t.check(bytes.Equal(o.raw, want), "%s %s: RESULT differs from the local run", kindNames[req.kind], req.key)
			run.requests++
			run.latMS[req.kind] = append(run.latMS[req.kind], ms(o.lat))
			run.bytes += len(o.raw)
			if req.kind == reqTrace {
				run.pushMS = append(run.pushMS, ms(o.push))
			}
			if req.kind == reqCold || req.kind == reqTrace {
				run.instr += o.res.TotalInstructions()
			}
			id := kindNames[req.kind] + " " + req.key.String()
			if _, ok := first[id]; !ok {
				first[id] = o.raw
			}
		}
	}
	after := srv.cache.Stats()
	run.cache.Hits += after.Hits - before.Hits
	run.cache.Writes += after.Writes - before.Writes
	return first
}

// passResults maps "class key" to the first RESULT a pass received.
type passResults map[string][]byte

// refDigest covers the reference result of every key, observability
// snapshots removed, plus the trace replay.
func (env *serveEnv) refDigest() (string, error) {
	per := map[string]string{}
	for k, res := range env.refRes {
		d, err := resultDigest(res)
		if err != nil {
			return "", err
		}
		per[k.String()] = d
	}
	per["trace "+env.plan.trace.String()] = rawDigest(env.traceRef)
	return combineDigests(per), nil
}

// digest covers the results, observability snapshots removed.
func (pr passResults) digest() (string, error) {
	per := map[string]string{}
	for id, raw := range pr {
		var res sim.Result
		if err := res.UnmarshalJSON(raw); err != nil {
			return "", err
		}
		d, err := resultDigest(&res)
		if err != nil {
			return "", err
		}
		per[id] = d
	}
	return combineDigests(per), nil
}

// runServe is the serve-mixed workload: set up several times, then run
// passes, each on a fresh server.
func runServe(sc scale, seed int64, seconds float64, traced bool) (*outcome, error) {
	p, err := newPlan(sc)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	rng := rand.New(rand.NewSource(seed))

	var (
		setup []float64
		env   *serveEnv
		srv   *serveServer
	)
	for i := 0; i < sc.ServeSetups; i++ {
		if env != nil {
			srv.close()
			env.close()
		}
		t0 := time.Now()
		if env, srv, err = serveSetup(sc, p, i, false); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer env.close()

	// One pass per three seconds: the number of passes, unlike the number
	// of sweeps, is fixed by --seconds, because the server's memory grows
	// with the trace sessions it has served (a finished session is held
	// until its idle reaper fires) and peak_rss_mb must not depend on the
	// host's speed. A traced run serves one untraced pass.
	passes := max(sc.MinPasses, int(math.Round(seconds/3)))
	if traced {
		passes = 1
	}
	run := &serveRun{}
	var (
		passWalls []float64
		first     [][]request // the first pass's sequence, which a traced run replays
	)
	for n := 0; n < passes; n++ {
		if n > 0 {
			if srv, err = env.startServer(); err != nil {
				return nil, err
			}
		}
		seq := p.sequence(sc, rng, n)
		before := run.wall
		got := env.pass(srv, seq, run, &out.tally)
		srv.close()
		passWalls = append(passWalls, (run.wall - before).Seconds())
		if n == 0 {
			first = seq
			if out.digest, err = got.digest(); err != nil {
				return nil, err
			}
		}
	}

	// The paper's single-core rows over the served keys: every
	// ddr3/heter-app/moca key is served and checked against its local run.
	cols := []string{exp.SysDDR3, exp.SysHeterApp, exp.SysMOCA}
	perf := stats.NewGrid("", "", p.apps, cols)
	edp := stats.NewGrid("", "", p.apps, cols)
	for _, app := range p.apps {
		for i, sys := range []string{"ddr3", "heter-app", "moca"} {
			res := env.refRes[skey{sys, app, sc.ServeMeasure}]
			perf.Set(app, cols[i], float64(res.AvgMemAccessTime()))
			edp.Set(app, cols[i], res.MemEDP())
		}
	}
	head := singleHeadline(perf, edp)

	cold := run.latMS[reqCold]
	hits := append(append([]float64(nil), run.latMS[reqMemo]...), run.latMS[reqDisk]...)
	coldP90, coldTail := tail(cold, 0.9)
	hitP99, hitTail := tail(hits, 0.99)
	wall := run.wall.Seconds()
	out.e2e["setup_s"] = metric{median(setup), "s"}
	out.e2e["wall_s"] = metric{median(run.rounds), "s"}
	out.e2e["sim_minstr_per_s"] = metric{float64(run.instr) / 1e6 / wall, "Minstr/s"}
	out.e2e["paper_gap_pp"] = metric{paperGapPP(head), "pp"}
	out.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	out.e2e["req_per_s"] = metric{float64(run.requests) / wall, "req/s"}
	out.e2e["cold_p50_ms"] = metric{median(cold), "ms"}
	out.extra["cold_p90_ms"] = metric{coldP90, "ms"}

	out.note("serve: %d passes x %d rounds, closed loop of %d clients; answered memo %d, disk %d, cold %d, trace %d, config %d; %d set-ups",
		len(passWalls), sc.Rounds, runtime.NumCPU(), len(run.latMS[reqMemo]), len(run.latMS[reqDisk]),
		len(cold), len(run.latMS[reqTrace]), len(run.latMS[reqConfig]), len(setup))
	out.note("pass walls (s): %.3f; set-ups (s): %.3f", passWalls, setup)
	out.extra["hit_p50_ms"] = metric{median(hits), "ms"}
	out.extra["hit_p99_ms"] = metric{hitP99, "ms"}
	out.extra["trace_p50_ms"] = metric{median(run.latMS[reqTrace]), "ms"}
	out.note("samples: hit %d (p99 has >=10 beyond: %v), cold %d (p90 has >=10 beyond: %v), trace %d",
		len(hits), hitTail, len(cold), coldTail, len(run.latMS[reqTrace]))
	for _, h := range head {
		out.note("headline: %-50s measured %5.1f%%  paper %3.0f%%", h.name, h.measured*100, h.paper*100)
	}

	if traced {
		if err := serveTraced(sc, p, first, out, run, env); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serveTraced sets up again with every run carrying its metrics, replays
// the untraced pass under a CPU profile, then times the benchmark's own
// calls into the run cache, the result decoder and the trace decoder.
func serveTraced(sc scale, p *servePlan, seq [][]request, out *outcome, untraced *serveRun, uenv *serveEnv) error {
	want, err := uenv.refDigest()
	if err != nil {
		return err
	}
	env, srv, err := serveSetup(sc, p, sc.ServeSetups, true)
	if err != nil {
		return err
	}
	defer env.close()
	refs, err := env.refDigest()
	if err != nil {
		srv.close()
		return err
	}
	out.check(refs == want, "traced set-up's local results %s differ from the untraced set-up's %s", refs, want)

	prof, err := startProfile()
	if err != nil {
		srv.close()
		return err
	}
	run := &serveRun{}
	got := env.pass(srv, seq, run, &out.tally)
	srv.close()
	l, err := prof.stop(run.instr)
	out.check(err == nil, "profile: %v", err)
	out.layers = l
	if out.tracedDigest, err = got.digest(); err != nil {
		return err
	}
	out.check(out.tracedDigest == out.digest, "traced pass's results %s differ from the untraced pass's %s", out.tracedDigest, out.digest)

	// Deterministic counts over every key's result, each key once.
	var results []*sim.Result
	for _, class := range [][]skey{p.memo, p.disk, p.cold} {
		for _, k := range class {
			results = append(results, env.refRes[k])
		}
	}
	var traceRes sim.Result
	if err := traceRes.UnmarshalJSON(env.traceRef); err != nil {
		return err
	}
	addModelCounts(l, append(results, &traceRes), true)

	var submits float64
	for _, kind := range []int{reqMemo, reqDisk, reqCold, reqConfig} {
		submits += float64(len(run.latMS[kind]))
	}
	l["exp.run_ms"] = metric{median(env.runMS), "ms"}
	l["exp.disk_hit_ratio"] = metric{float64(run.cache.Hits) / submits, "ratio"}
	l["exp.simulated_runs"] = metric{float64(run.cache.Writes), "count"}
	l["exp.memo_hit_ratio"] = metric{(submits - float64(run.cache.Hits) - float64(run.cache.Writes)) / submits, "ratio"}
	l["wire.result_bytes_avg"] = metric{float64(run.bytes) / float64(run.requests), "B"}
	l["trace.bytes_per_item"] = metric{float64(len(env.traceData)) / float64(env.traceItems), "B"}
	l["trace.push_ms"] = metric{median(run.pushMS), "ms"}
	l["trace_overhead_pct"] = metric{(run.wall.Seconds()/untraced.wall.Seconds() - 1) * 100, "%"}

	// Spans around the benchmark's own calls into public functions.
	load, store, err := env.cacheSpans()
	if err != nil {
		return err
	}
	l["exp.cache_load_ms"] = metric{median(load), "ms"}
	l["exp.cache_store_ms"] = metric{median(store), "ms"}
	var decode []float64
	for _, raw := range got {
		var res sim.Result
		t0 := time.Now()
		err := res.UnmarshalJSON(raw)
		decode = append(decode, ms(time.Since(t0)))
		out.check(err == nil, "decode: %v", err)
	}
	l["sim.result_decode_ms"] = metric{median(decode), "ms"}
	var rates []float64
	for i := 0; i < 5; i++ {
		rate, err := decodeRate(env.traceData)
		if !out.check(err == nil, "trace decode: %v", err) {
			break
		}
		rates = append(rates, rate)
	}
	l["trace.decode_mitems_per_s"] = metric{median(rates), "Mitems/s"}
	fillAbsentLayers(l)
	return nil
}

// cacheSpans times RunCache.LoadResult on every disk key from the store
// and StoreResult into a scratch cache, checking each load hits.
func (env *serveEnv) cacheSpans() (load, store []float64, err error) {
	rd, err := exp.OpenRunCache(env.storeDir(), exp.CacheRead)
	if err != nil {
		return nil, nil, err
	}
	wr, err := exp.OpenRunCache(filepath.Join(env.dir, "scratch"), exp.CacheReadWrite)
	if err != nil {
		return nil, nil, err
	}
	for _, k := range env.plan.disk {
		def, err := exp.SystemByName(k.system)
		if err != nil {
			return nil, nil, err
		}
		ins, err := env.writer.Instrument(k.app)
		if err != nil {
			return nil, nil, err
		}
		// The key the runner derives for this run.
		cfg := sim.DefaultConfig(def.Name, def.Modules, def.Policy)
		cfg.Chains = def.Chains
		cfg.Obs = obs.Options{Metrics: env.metrics}
		key, err := exp.ResultCacheKey(cfg, []sim.ProcSpec{ins.Proc(def.Policy, workload.Ref)}, k.measure, env.sc.ServeWindow)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		res, ok := rd.LoadResult(key)
		load = append(load, ms(time.Since(t0)))
		if !ok {
			return nil, nil, fmt.Errorf("serve: disk key %s not in the cache", k)
		}
		t0 = time.Now()
		err = wr.StoreResult(key, res)
		store = append(store, ms(time.Since(t0)))
		if err != nil {
			return nil, nil, err
		}
	}
	return load, store, nil
}

// decodeRate decodes a whole trace through the public reader and returns
// millions of items per second.
func decodeRate(data []byte) (float64, error) {
	t0 := time.Now()
	s, err := trace.Open(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	var n uint64
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if err := s.Err(); err != nil {
		return 0, err
	}
	return float64(n) / 1e6 / time.Since(t0).Seconds(), nil
}
