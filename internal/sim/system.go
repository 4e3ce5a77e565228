package sim

import (
	"context"
	"fmt"

	"moca/internal/alloc"
	"moca/internal/cache"
	"moca/internal/cpu"
	"moca/internal/event"
	"moca/internal/heap"
	"moca/internal/mem"
	"moca/internal/obs"
	"moca/internal/profile"
	"moca/internal/vm"
	"moca/internal/workload"
)

// router maps physical line addresses to memory channels: heterogeneous
// modules have a dedicated channel; homogeneous modules interleave across
// their channels at row-buffer granularity (RoRaBaChCo: the Ch bits sit
// just above the column bits, Table I).
type router struct {
	base  []int    // per module: first global channel index
	nchan []int    // per module: channel count
	gran  []uint64 // per module: interleave granularity
	// onAccess, if set, observes every merged request at the window
	// barrier (the migration monitor's per-page access counter).
	onAccess func(paddr uint64)
}

// locate resolves a line address to its global channel index and the
// channel-local address. Pure: safe from any shard.
func (r *router) locate(lineAddr uint64) (ch int, local uint64) {
	module := vm.ModuleOf(lineAddr)
	if module < 0 || module >= len(r.base) {
		panic(fmt.Sprintf("sim: line address %#x maps to unknown module %d", lineAddr, module))
	}
	off := vm.ModuleOffset(lineAddr)
	n := uint64(r.nchan[module])
	if n == 1 {
		return r.base[module], off
	}
	g := r.gran[module]
	c := (off / g) % n
	return r.base[module] + int(c), (off/(g*n))*g + off%g
}

// coreCtx is one core shard: the cpu, its private cache hierarchy, heap,
// and stream, all driven by the shard's own event queue.
type coreCtx struct {
	proc      int
	q         *event.Queue
	link      *shardLink
	app       *workload.App
	core      *cpu.Core
	hier      *cache.Hierarchy
	allocator *heap.Allocator
	profiler  *profile.Profiler
	stream    cpu.Stream

	// Phase bookkeeping.
	base    uint64
	crossed bool
	counted bool
	dead    bool
	runErr  error

	// tickAt is the fast path's clock cursor: the next cycle this core
	// still has to execute. A compute batch advances it several cycles at
	// once; the lockstep loop skips cycles below it (window.go).
	tickAt event.Time

	frozen   bool
	snapshot CoreResult
	snapAt   event.Time
}

// System is one fully assembled simulated machine.
type System struct {
	cfg    Config
	q      *event.Queue // coordinator queue: migration epochs and copy pacing
	cycle  event.Time
	window event.Time
	simNow event.Time // start of the next window

	cores []*coreCtx
	chans []*chanShard
	links []*shardLink // per core, plus the migration link last

	modules  []*vm.Module
	os       *alloc.OS
	channels []*mem.Controller
	chanCaps []uint64
	route    *router
	migrator *alloc.Migrator // nil unless PolicyMigrate
	migLink  *shardLink

	fastpath    bool   // !cfg.NoFastpath: inline hits + compute batching
	phaseTarget uint64 // per-core quota of the running phase (progress)

	// Observability (nil unless cfg.Obs requests it). runTrace is the
	// caller's sink; shards emit into traceStages (0 = OS/coordinator,
	// then cores, then channels), merged by flushTrace.
	reg         *obs.Registry
	runTrace    *obs.Trace
	traceStages []*obs.Trace
	coordTrace  *obs.Trace

	linkScratch []linkMsg
	fillScratch []chanFill

	// Progress reporting (active only when cfg.Progress is set): base is
	// the instruction credit from completed phases, total the whole run's
	// per-core quota (warmup + measure).
	progressBase  uint64
	progressTotal uint64
}

// New assembles a system running one process per entry of procs (the
// process index is the core index).
func New(cfg Config, procs []ProcSpec) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(procs) == 0 {
		return nil, fmt.Errorf("sim: no processes")
	}

	s := &System{
		cfg:      cfg,
		q:        event.NewQueue(),
		cycle:    cfg.Core.Cycle,
		fastpath: !cfg.NoFastpath,
	}
	s.window = windowCycles * s.cycle

	totalChannels := 0
	for _, spec := range cfg.Modules {
		totalChannels += spec.Channels
	}

	// Observability: a per-system registry (concurrent runs never share
	// one) and the caller's trace sink. Both stay nil when disabled, so
	// every component hook below degrades to a nil check. Trace emissions
	// go to per-shard stages, each in its own shard's time order;
	// flushTrace merges them deterministically.
	if cfg.Obs.Metrics {
		s.reg = obs.NewRegistry()
	}
	s.runTrace = cfg.Obs.Trace
	if s.runTrace != nil {
		for i := 0; i < 1+len(procs)+totalChannels; i++ {
			s.traceStages = append(s.traceStages, obs.NewTrace(s.runTrace.Cap()))
		}
		s.coordTrace = s.traceStages[0]
	}
	if cfg.Obs.Enabled() {
		s.q.AttachObs(s.reg)
	}
	coreStage := func(i int) *obs.Trace {
		if s.traceStages == nil {
			return nil
		}
		return s.traceStages[1+i]
	}
	chanStage := func(ci int) *obs.Trace {
		if s.traceStages == nil {
			return nil
		}
		return s.traceStages[1+len(procs)+ci]
	}

	// Memory modules, channel shards, and the router.
	s.route = &router{}
	var infos []alloc.ModuleInfo
	for i, spec := range cfg.Modules {
		m, err := vm.NewModule(i, spec.Kind, spec.CapacityBytes)
		if err != nil {
			return nil, err
		}
		s.modules = append(s.modules, m)
		infos = append(infos, alloc.ModuleInfo{ID: i, Kind: spec.Kind})

		dev := mem.Preset(spec.Kind)
		perChan := spec.CapacityBytes / uint64(spec.Channels)
		s.route.base = append(s.route.base, len(s.channels))
		s.route.nchan = append(s.route.nchan, spec.Channels)
		s.route.gran = append(s.route.gran, uint64(dev.Geometry.RowBufferBytes))
		for ch := 0; ch < spec.Channels; ch++ {
			name := fmt.Sprintf("%s-m%d-ch%d", spec.Kind, i, ch)
			ci := len(s.chans)
			cs, err := newChanShard(ci, func(q *event.Queue) (*mem.Controller, error) {
				return mem.NewController(name, q, mem.ChannelConfig{
					Device: dev, CapacityBytes: perChan, Scheduler: cfg.Scheduler,
					RowPolicy: cfg.RowPolicy, BankStripe: cfg.BankStripe,
				})
			}, len(procs), s.cycle)
			if err != nil {
				return nil, err
			}
			if cfg.Obs.Enabled() {
				cs.q.AttachObs(s.reg)
				cs.ctrl.AttachObs(s.reg, chanStage(ci))
				cs.reg = s.reg
			}
			s.chans = append(s.chans, cs)
			s.channels = append(s.channels, cs.ctrl)
			s.chanCaps = append(s.chanCaps, perChan)
		}
	}

	// Placement policy and OS.
	var policy alloc.Policy
	switch cfg.Policy {
	case PolicyFixed:
		order := make([]int, len(cfg.Modules))
		for i := range order {
			order[i] = i
		}
		policy = alloc.NewFixed("fixed", order)
	case PolicyAppLevel:
		policy = alloc.NewAppLevel(infos, cfg.Chains)
	case PolicyMOCA:
		policy = alloc.NewMOCA(infos, cfg.Chains)
	case PolicyMigrate:
		// Pages start in slow memory (low-power first); the epoch-based
		// monitor promotes hot pages into RLDRAM/HBM at runtime.
		order := alloc.ExpandChain(infos, []mem.Kind{mem.LPDDR2, mem.DDR3, mem.HBM, mem.RLDRAM})
		policy = alloc.NewFixed("migrate", order)
	default:
		return nil, fmt.Errorf("sim: unknown policy %d", int(cfg.Policy))
	}
	osys, err := alloc.NewOS(s.modules, policy)
	if err != nil {
		return nil, err
	}
	s.os = osys
	if cfg.Obs.Enabled() {
		osys.AttachObs(s.reg, s.coordTrace, func(proc int) int64 {
			return int64(s.cores[proc].q.Now())
		})
	}

	// Cores: heap, app, hierarchy, core, profiler — one shard each.
	for i, p := range procs {
		spec := p.App.ForInput(p.Input)
		allocator := heap.New(heap.Config{NamingDepth: p.NamingDepth, Classes: p.Classes})
		app, err := workload.Instantiate(spec, allocator, uint64(i))
		if err != nil {
			return nil, err
		}
		osys.AddProcess(i, p.AppClass)

		cq := event.NewQueue()
		if cfg.Obs.Enabled() {
			cq.AttachObs(s.reg)
		}
		link := &shardLink{q: cq, route: s.route, delay: s.window, src: i, out: make([][]linkMsg, totalChannels)}
		hcfg := cache.HierarchyConfig{L1: cfg.CacheL1, L2: cfg.CacheL2, CPUCycle: cfg.Core.Cycle, Core: i, Prefetch: cfg.Prefetch}
		hier, err := cache.NewHierarchy(cq, link, hcfg)
		if err != nil {
			return nil, err
		}
		if cfg.Obs.Enabled() {
			hier.AttachObs(s.reg, coreStage(i))
		}
		stream := cpu.Stream(app.Stream())
		if p.Stream != nil {
			stream = p.Stream
		}
		core, err := cpu.New(i, cfg.Core, stream, alloc.Translator{OS: osys, Proc: i}, hier)
		if err != nil {
			return nil, err
		}
		core.SetFastpath(s.fastpath)

		ctx := &coreCtx{proc: i, q: cq, link: link, app: app, core: core, hier: hier, allocator: allocator, stream: stream}
		if cfg.Profile {
			prof := profile.New()
			ctx.profiler = prof
			core.OnRetire = prof.OnRetire
			core.OnMemLoadRetire = prof.OnMemLoadRetire
			hier.OnLLCMiss = prof.OnLLCMiss
			hier.OnStore = prof.OnStore
			hier.OnLoad = prof.OnLoad
		}
		s.cores = append(s.cores, ctx)
		s.links = append(s.links, link)
	}

	// The migration engine's copy traffic crosses barriers like any core's
	// demand traffic, through its own link on the coordinator queue.
	s.migLink = &shardLink{q: s.q, route: s.route, delay: s.window, src: len(procs), out: make([][]linkMsg, totalChannels)}
	s.links = append(s.links, s.migLink)

	if cfg.Policy == PolicyMigrate {
		if err := s.setupMigration(cfg, infos); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// OS returns the operating-system layer (for placement inspection).
func (s *System) OS() *alloc.OS { return s.os }

// App returns core i's application instance.
func (s *System) App(i int) *workload.App { return s.cores[i].app }

// Allocator returns core i's heap.
func (s *System) Allocator(i int) *heap.Allocator { return s.cores[i].allocator }

// SuggestedWarmup returns an instruction count that comfortably covers
// every core's initialization phase plus cache warm-up.
func (s *System) SuggestedWarmup() uint64 {
	var max uint64
	for _, c := range s.cores {
		if n := c.app.InitInstructions(); n > max {
			max = n
		}
	}
	return max + 100_000
}

// Run simulates: every core first retires warmup instructions (statistics
// are then reset with cache/allocation state preserved), then the measured
// window runs until every core retires measure further instructions.
// Per-core statistics freeze as each core crosses its quota; cores keep
// executing so memory contention persists until the last core finishes,
// as in standard multi-program methodology.
func (s *System) Run(warmup, measure uint64) (*Result, error) {
	return s.RunContext(context.Background(), warmup, measure)
}

// RunContext is Run with cancellation: the simulation loop polls ctx at
// every window barrier and returns ctx.Err() promptly when it fires, so
// an in-flight run can be abandoned cleanly (Ctrl-C in the commands).
// Cancellation never perturbs a run that completes: the poll is a
// read-only check between deterministic windows.
func (s *System) RunContext(ctx context.Context, warmup, measure uint64) (*Result, error) {
	if measure == 0 {
		return nil, fmt.Errorf("sim: zero measurement window")
	}
	s.progressBase, s.progressTotal = 0, warmup+measure

	if err := s.runPhase(ctx, warmup, nil); err != nil {
		return nil, err
	}
	s.progressBase = warmup
	for _, c := range s.cores {
		c.core.ResetStats()
		c.hier.ResetStats()
	}
	for _, ch := range s.channels {
		ch.ResetStats()
	}
	s.resetShardStats()
	// The observability snapshot covers the same measured window as the
	// component stats (nil-safe when metrics are disabled). Controllers
	// first flush their virtual-tick accounts so the event counters read
	// as if every device clock had been polled.
	for _, ch := range s.channels {
		ch.SyncObs()
	}
	s.reg.Reset()
	start := s.simNow

	snap := func(c *coreCtx, at event.Time) {
		c.frozen = true
		c.snapAt = at
		c.snapshot = s.coreResult(c, at-start)
	}
	if err := s.runPhase(ctx, measure, snap); err != nil {
		return nil, err
	}
	end := s.simNow
	for _, ch := range s.channels {
		ch.SyncObs()
	}
	s.flushTrace()

	res := &Result{
		Name:      s.cfg.Name,
		Policy:    s.os.Policy().Name(),
		Elapsed:   end - start,
		OS:        s.os.Stats(),
		Migration: s.MigrationStats(),
		Obs:       s.reg.Snapshot(),
	}
	for _, m := range s.cfg.Modules {
		res.ModuleKinds = append(res.ModuleKinds, m.Kind)
	}
	for i, c := range s.cores {
		cr := c.snapshot
		if !c.frozen {
			cr = s.coreResult(c, end-start)
			cr.Hier.BackPressure += s.bpFor(i)
		}
		res.Cores = append(res.Cores, cr)
	}
	for i, ch := range s.channels {
		res.Channels = append(res.Channels, ChannelResult{
			Name:          ch.Name,
			Kind:          ch.Config().Device.Kind,
			CapacityBytes: s.chanCaps[i],
			Stats:         ch.Stats(),
		})
	}
	res.computeEnergy(s.cfg, end-start)
	return res, nil
}

// streamErr extracts a terminal decode error from streams that expose one
// (trace.Reader, trace.Loop); built-in generators are infinite and report
// nothing.
func streamErr(s cpu.Stream) error {
	if ec, ok := s.(interface{ Err() error }); ok {
		return ec.Err()
	}
	return nil
}

func (s *System) coreResult(c *coreCtx, window event.Time) CoreResult {
	cr := CoreResult{
		App:      c.app.Spec.Name,
		CPU:      c.core.Stats(),
		Hier:     c.hier.Stats(),
		L1:       c.hier.L1().Stats(),
		L2:       c.hier.L2().Stats(),
		Prefetch: c.hier.PrefetchStats(),
		Window:   window,
	}
	if pt, ok := s.os.PageTable(c.proc); ok {
		cr.PagesByModule = pt.ResidentByModule()
	}
	if tlb, ok := s.os.TLB(c.proc); ok {
		cr.TLBHitRate = tlb.HitRate()
	}
	if c.profiler != nil {
		pr := c.profiler.Snapshot(c.app.Spec.Name, c.allocator.Names(), s.cfg.Thresholds)
		cr.Profile = &pr
	}
	return cr
}
