// Package cpu models the paper's execution core (Table I): a 1 GHz x86-like
// out-of-order core with fetch/dispatch/issue/commit width 3, an 84-entry
// reorder buffer, and a 32-entry load queue, calibrated on the AMD
// Magny-Cours. The model executes an abstract instruction stream: loads and
// stores carry virtual addresses and memory-object identities; everything
// else is a "compute" instruction that completes in one cycle.
//
// The model is deliberately register-free: memory-level parallelism is
// expressed by the stream itself. A load marked DependsOnPrev cannot issue
// until the previous load completes (pointer chasing, MLP=1); independent
// loads overlap up to the load queue and MSHR limits. Loads complete out of
// order but retire in order, and every cycle an incomplete load sits at the
// head of the ROB is accounted as a "ROB head stall" cycle attributed to
// the object being loaded — exactly the MLP metric MOCA classifies on
// (Mutlu et al., IEEE Micro 2006; paper Sections II-III).
package cpu

import (
	"fmt"

	"moca/internal/cache"
	"moca/internal/event"
)

// Kind discriminates stream instructions.
type Kind uint8

const (
	// Compute is a batch of N single-cycle non-memory instructions.
	Compute Kind = iota
	// Load reads VAddr on behalf of object Obj.
	Load
	// Store writes VAddr on behalf of object Obj (posted; never stalls
	// retirement).
	Store
)

// Instr is one element of an application's instruction stream. The two
// single-byte fields lead and N is 32-bit so the struct packs into 24
// bytes — it is copied in bulk through trace arenas and batch refills,
// where the two padding rows of a naive layout are measurable in decode
// throughput.
type Instr struct {
	Kind Kind
	// DependsOnPrev marks a load that consumes the previous load's value
	// and therefore cannot issue until it completes.
	DependsOnPrev bool
	// N is the batch size for Compute instructions (>= 1; the trace
	// format caps it at 2^30, far past any generator's gap).
	N int32
	// VAddr is the virtual address for Load/Store.
	VAddr uint64
	// Obj names the memory object being accessed (profiling identity).
	Obj uint64
}

// Stream supplies instructions to a core. Next returns false at program end.
type Stream interface {
	Next() (Instr, bool)
}

// BatchStream is the optional bulk extension of Stream: Refill copies up
// to len(dst) pending instructions into dst and returns how many, with 0
// meaning the stream has ended (terminal, like Next returning false). A
// core whose stream implements it amortizes the per-instruction interface
// call into one call per buffer — the replay fast path for block traces
// (internal/trace.BlockReader) and generated streams alike. Refill must
// yield exactly the sequence repeated Next calls would.
type BatchStream interface {
	Stream
	Refill(dst []Instr) int
}

// BorrowStream is the zero-copy refinement of BatchStream: NextBatch
// returns a slice of pending instructions owned by the stream, valid only
// until the next NextBatch call, with an empty return meaning end of
// stream (terminal). A core whose stream implements it reads decoded
// instructions in place — for block traces that is straight out of the
// decoder's arena, skipping the staging copy Refill would do. The
// concatenation of returned batches must equal the sequence repeated Next
// calls would yield, and the stream must not mutate a returned batch
// before the next call.
type BorrowStream interface {
	BatchStream
	NextBatch() []Instr
}

// Translator maps virtual to physical addresses, faulting pages in as
// needed (the OS page-allocation path). ok=false means physical memory is
// exhausted, which aborts the core with an error.
type Translator interface {
	Translate(vaddr uint64, write bool) (paddr uint64, ok bool)
}

// MemPort is the cache hierarchy interface the core issues accesses to. The
// core registers itself as the sink and tokens completions with the load's
// ROB index (see Core.AccessDone).
type MemPort interface {
	Access(paddr uint64, obj uint64, write bool, sink cache.AccessSink, token uint64)
}

// FastPort is the optional non-scheduling probe interface a MemPort may
// implement (cache.Hierarchy does). AccessLoad services a clean L1/L2 load
// hit inline, returning the completion time, the event-order slot reserved
// for it, and the hit level; on a miss or conflict it behaves exactly like
// Access and reports inline=false. Promote rematerializes an inline
// completion as a real event in its original order slot — the core uses it
// when a dependent load must be woken by the completion callback. Output is
// byte-identical whether or not the port is used (sim.Config.NoFastpath).
type FastPort interface {
	MemPort
	AccessLoad(paddr uint64, obj uint64, sink cache.AccessSink, token uint64) (readyAt event.Time, ord uint64, level cache.Level, inline bool)
	Promote(at event.Time, ord uint64, level cache.Level, sink cache.AccessSink, token uint64)
}

// Config sizes the core per Table I.
type Config struct {
	Width   int        // fetch/dispatch/issue/commit width
	ROBSize int        // reorder buffer entries
	LQSize  int        // load queue entries
	Cycle   event.Time // clock period
}

// DefaultConfig returns the Table I core: width 3, 84-entry ROB, 32-entry
// LQ, 1 GHz.
func DefaultConfig() Config {
	return Config{Width: 3, ROBSize: 84, LQSize: 32, Cycle: event.Nanosecond}
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.Width <= 0:
		return fmt.Errorf("cpu: width must be positive, got %d", c.Width)
	case c.ROBSize <= 0:
		return fmt.Errorf("cpu: ROB size must be positive, got %d", c.ROBSize)
	case c.LQSize <= 0:
		return fmt.Errorf("cpu: LQ size must be positive, got %d", c.LQSize)
	case c.Cycle <= 0:
		return fmt.Errorf("cpu: cycle time must be positive")
	}
	return nil
}

// Stats aggregates core activity.
type Stats struct {
	Cycles       uint64
	Instructions uint64 // retired
	Loads        uint64
	Stores       uint64

	// ROBHeadStallCycles counts cycles an incomplete load blocked the ROB
	// head; MemStallCycles is the subset attributed to loads that missed
	// the LLC (the denominator for "stall cycles per load miss").
	ROBHeadStallCycles uint64
	MemStallCycles     uint64
	MemLoads           uint64 // retired loads that were LLC misses

	LQFullCycles  uint64 // dispatch stalled on a full load queue
	ROBFullCycles uint64 // dispatch stalled on a full ROB
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

type robEntry struct {
	kind       Kind
	done       bool
	issued     bool
	obj        uint64
	vaddr      uint64
	depends    bool
	level      cache.Level
	headStalls uint64
	// prevLoad is the ROB index of the most recent older load at dispatch
	// time (-1: none), replacing a backward ROB walk on every dependent
	// issue check. Loads retire in order, so it is valid exactly while it
	// still lies between head and this entry in ring order.
	prevLoad int32

	// Inline-hit servicing (FastPort): the load completed synchronously at
	// issue; done flips when the core clock reaches readyAt (settle), or the
	// completion is promoted back into a real event at slot virtOrd.
	inline  bool
	readyAt event.Time
	virtOrd uint64
}

// Core is one simulated core. Drive it by calling Tick once per clock; the
// surrounding simulator interleaves Tick with the event queue.
type Core struct {
	ID  int
	cfg Config

	stream Stream
	xlate  Translator
	mem    MemPort
	fast   FastPort   // non-nil only when the fast path is enabled
	now    event.Time // current core clock (maintained by TickAt/FastForward)

	rob        []robEntry // ring buffer
	head, tail int        // head = oldest; tail = next free
	occupancy  int
	loadsInLQ  int
	lastLoad   int32 // ROB index of the most recently dispatched load (-1: none)

	fb         fetchBuf
	streamDone bool
	faulted    error

	// Batch refill: when the stream implements BatchStream, refills pull
	// whole slices instead of one Next call per instruction. bbuf is the
	// live view — a borrowed arena slice for BorrowStream sources
	// (zero-copy), or a prefix of the staging buffer ibuf otherwise.
	batch  BatchStream
	borrow BorrowStream
	bbuf   []Instr
	bpos   int
	ibuf   [64]Instr

	stats Stats

	// OnMemLoadRetire, if set, fires when a load that missed the LLC
	// retires, reporting the ROB-head stall cycles it caused — the
	// profiler's per-object MLP signal.
	OnMemLoadRetire func(obj uint64, headStallCycles uint64)
	// OnRetire, if set, fires with the number of instructions retired
	// each cycle (profiler's instruction counter).
	OnRetire func(n uint64)
}

// New builds a core over the given stream, translator, and memory port.
func New(id int, cfg Config, stream Stream, xlate Translator, mem MemPort) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if stream == nil || xlate == nil || mem == nil {
		return nil, fmt.Errorf("cpu: nil stream, translator, or memory port")
	}
	c := &Core{
		ID:       id,
		cfg:      cfg,
		stream:   stream,
		xlate:    xlate,
		mem:      mem,
		rob:      make([]robEntry, cfg.ROBSize),
		lastLoad: -1,
	}
	if bs, ok := stream.(BatchStream); ok {
		c.batch = bs
	}
	if bs, ok := stream.(BorrowStream); ok {
		c.borrow = bs
	}
	return c, nil
}

// SetFastpath enables (or disables) the common-case fast path: inline hit
// servicing through the memory port's FastPort interface and compute-run
// batching via FastForward. It is a no-op when the port does not implement
// FastPort. Retired instructions, stats, and event ordering are
// byte-identical either way; the fast path only changes how they are
// computed.
func (c *Core) SetFastpath(on bool) {
	c.fast = nil
	if on {
		if fp, ok := c.mem.(FastPort); ok {
			c.fast = fp
		}
	}
}

// Stats returns a snapshot of the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// Instructions returns the retired-instruction count without copying the
// whole Stats struct: the windowed loop reads it every cycle to check
// quota crossings.
//
//moca:hotpath
func (c *Core) Instructions() uint64 { return c.stats.Instructions }

// ResetStats clears counters (pipeline state is preserved).
func (c *Core) ResetStats() { c.stats = Stats{} }

// Done reports whether the core has retired its entire stream.
func (c *Core) Done() bool { return (c.streamDone && c.occupancy == 0) || c.faulted != nil }

// Err returns the fatal error that halted the core, if any (for example,
// physical memory exhaustion).
func (c *Core) Err() error { return c.faulted }

// Tick advances the core by one clock: retire, then dispatch/issue.
func (c *Core) Tick() { c.TickAt(c.now + c.cfg.Cycle) }

// TickAt is Tick at an absolute clock value: the simulator passes the cycle
// it is driving, which the fast path needs to settle inline-serviced loads
// (an inline load is done once now reaches its readyAt).
//
//moca:hotpath
func (c *Core) TickAt(now event.Time) {
	c.now = now
	if c.Done() {
		return
	}
	c.stats.Cycles++
	c.retire()
	c.dispatch()
}

// settle flips an inline-serviced load to done once the core clock reaches
// its completion time — exactly the cycle the slow path's delivery event
// would have been observed by retire. No-op with the fast path off (inline
// is never set).
//
//moca:hotpath
func (c *Core) settle(e *robEntry) {
	if e.inline && e.readyAt <= c.now {
		e.inline = false
		e.done = true
	}
}

//moca:hotpath
func (c *Core) retire() {
	retired := uint64(0)
	for i := 0; i < c.cfg.Width && c.occupancy > 0; i++ {
		e := &c.rob[c.head]
		c.settle(e)
		if !e.done {
			if e.kind == Load {
				e.headStalls++
				c.stats.ROBHeadStallCycles++
			}
			break
		}
		if e.kind == Load {
			c.loadsInLQ--
			if e.level == cache.MemHit {
				c.stats.MemLoads++
				c.stats.MemStallCycles += e.headStalls
				if c.OnMemLoadRetire != nil {
					c.OnMemLoadRetire(e.obj, e.headStalls)
				}
			}
		}
		c.head++
		if c.head == c.cfg.ROBSize {
			c.head = 0
		}
		c.occupancy--
		retired++
	}
	if retired > 0 {
		c.stats.Instructions += retired
		if c.OnRetire != nil {
			c.OnRetire(retired)
		}
	}
}

//moca:hotpath
func (c *Core) dispatch() {
	for i := 0; i < c.cfg.Width; i++ {
		if c.occupancy >= c.cfg.ROBSize {
			c.stats.ROBFullCycles++
			return
		}
		in, ok := c.peek()
		if !ok {
			return
		}
		switch in.Kind {
		case Compute:
			c.consumeComputeOne()
			c.push(robEntry{kind: Compute, done: true})
		case Store:
			c.consume()
			c.push(robEntry{kind: Store, done: true})
			c.stats.Stores++
			if paddr, ok := c.translate(in.VAddr, true); ok {
				c.mem.Access(paddr, in.Obj, true, nil, 0)
			}
		case Load:
			if c.loadsInLQ >= c.cfg.LQSize {
				c.stats.LQFullCycles++
				return
			}
			c.consume()
			idx := c.push(robEntry{kind: Load, obj: in.Obj, vaddr: in.VAddr, depends: in.DependsOnPrev, prevLoad: c.lastLoad})
			c.lastLoad = int32(idx)
			c.loadsInLQ++
			c.stats.Loads++
			c.maybeIssueLoad(idx)
		}
		if c.faulted != nil {
			return
		}
	}
}

// maybeIssueLoad issues the load at ROB index idx unless it depends on an
// earlier, still-incomplete load (pointer chasing).
//
//moca:hotpath
func (c *Core) maybeIssueLoad(idx int) {
	e := &c.rob[idx]
	if e.issued {
		return
	}
	if e.depends {
		if p, ok := c.prevLoadIndex(idx); ok {
			pe := &c.rob[p]
			c.settle(pe)
			if !pe.done {
				if pe.inline {
					// The producer's completion was serviced inline and no
					// event exists to wake this load: materialize it, so
					// AccessDone re-runs dependents at exactly its time.
					c.promote(p, pe)
				}
				// Issue when the producer completes (its completion
				// callback re-runs dependents).
				return
			}
		}
	}
	e.issued = true
	paddr, ok := c.translate(e.vaddr, false)
	if !ok {
		e.done = true
		return
	}
	if c.fast != nil {
		readyAt, ord, level, inline := c.fast.AccessLoad(paddr, e.obj, c, uint64(idx))
		if inline {
			e.inline, e.readyAt, e.virtOrd, e.level = true, readyAt, ord, level
			if c.nextDependentWaiting(idx) {
				// A dependent already sits in the ROB waiting for this
				// load's completion callback; keep the completion real.
				c.promote(idx, e)
			}
		}
		return
	}
	c.mem.Access(paddr, e.obj, false, c, uint64(idx))
}

// promote converts the inline-serviced load at idx back into a real
// delivery event in its original event-order slot.
//
//moca:hotpath
func (c *Core) promote(idx int, e *robEntry) {
	c.fast.Promote(e.readyAt, e.virtOrd, e.level, c, uint64(idx))
	e.inline = false
}

// nextDependentWaiting reports whether the next younger load is an unissued
// dependent of the load at idx (mirrors wakeDependents' scan: only the
// immediately next load can depend on idx).
//
//moca:hotpath
func (c *Core) nextDependentWaiting(idx int) bool {
	i := idx + 1
	if i == c.cfg.ROBSize {
		i = 0
	}
	for i != c.tail {
		e := &c.rob[i]
		if e.kind == Load {
			return e.depends && !e.issued
		}
		i++
		if i == c.cfg.ROBSize {
			i = 0
		}
	}
	return false
}

// FastForward retires a run of batchable cycles starting at now, strictly
// before end, advancing the core clock in one call instead of one Tick per
// cycle — the compute-run half of the fast path. A cycle is batchable when
// its whole Tick is replicable without touching the instruction stream, the
// translator, or the event queue:
//
//   - the fetch buffer holds a Compute batch with at least a full dispatch
//     width remaining (dispatch consumes only the buffer), or
//   - the ROB is full with an unmatured head (a pure stall cycle: retire
//     accounts the head stall, dispatch accounts the ROB-full stall).
//
// Batched cycles post no events, fault no pages, and never touch the
// stream, so they are invisible to every other shard; the caller bounds end
// by the next queued event and the window barrier, and budget (remaining
// instructions to its quota crossing) stops the batch on the exact crossing
// cycle. Memory instructions, stream refills, and everything else fall back
// to per-cycle Ticks. Returns the number of cycles advanced; stats are
// byte-identical to the same cycles executed through Tick.
//
//moca:hotpath
func (c *Core) FastForward(now, end event.Time, budget uint64) (cycles int, retired uint64) {
	n := 0
	start := c.stats.Instructions
	for now < end {
		if c.occupancy == c.cfg.ROBSize {
			e := &c.rob[c.head]
			if e.done {
				break // head retirable: dispatch may refill, full Tick needed
			}
			// Pure stall: until the head matures (inline) or an event fires
			// (bounded by end), every cycle is the same four counter
			// increments — pay them arithmetically instead of looping.
			stallEnd := end
			if e.inline {
				if e.readyAt <= now {
					break // matured: the slow tick retires it
				}
				if e.readyAt < stallEnd {
					stallEnd = e.readyAt
				}
			}
			k := uint64((stallEnd - now + c.cfg.Cycle - 1) / c.cfg.Cycle)
			c.stats.Cycles += k
			c.stats.ROBFullCycles += k
			if e.kind == Load {
				e.headStalls += k
				c.stats.ROBHeadStallCycles += k
			}
			n += int(k)
			now += event.Time(k) * c.cfg.Cycle
			c.now = now - c.cfg.Cycle
			continue
		}
		if !c.batchable(now) {
			break
		}
		c.now = now
		c.stats.Cycles++
		c.retire()
		c.dispatchComputes()
		n++
		now += c.cfg.Cycle
		if c.stats.Instructions-start >= budget {
			break
		}
	}
	return n, c.stats.Instructions - start
}

// batchable reports whether the Tick at cycle now is replicable by
// retire+dispatchComputes alone (see FastForward). It never touches the
// stream: peeking could end it a cycle early and diverge from the slow
// path.
//
//moca:hotpath
func (c *Core) batchable(now event.Time) bool {
	if c.fb.valid && c.fb.in.Kind == Compute && int(c.fb.in.N) >= c.cfg.Width {
		return true
	}
	if c.occupancy == c.cfg.ROBSize {
		e := &c.rob[c.head]
		return !e.done && !(e.inline && e.readyAt <= now)
	}
	return false
}

// dispatchComputes is dispatch restricted to the batchable cases: it drains
// compute instructions from the fetch buffer (never refilling it) and
// accounts ROB-full stalls, exactly as dispatch would.
//
//moca:hotpath
func (c *Core) dispatchComputes() {
	for i := 0; i < c.cfg.Width; i++ {
		if c.occupancy >= c.cfg.ROBSize {
			c.stats.ROBFullCycles++
			return
		}
		if !c.fb.valid || c.fb.in.Kind != Compute {
			return
		}
		c.consumeComputeOne()
		c.push(robEntry{kind: Compute, done: true})
	}
}

// AccessDone receives load completions from the memory port
// (cache.AccessSink); the token is the load's ROB index. A load cannot
// retire before completing, so the slot still holds the issuing load.
func (c *Core) AccessDone(token uint64, _ event.Time, level cache.Level) {
	idx := int(token)
	e := &c.rob[idx]
	e.done = true
	e.level = level
	c.wakeDependents(idx)
}

// wakeDependents issues any younger dependent load that was waiting on the
// load at index idx.
func (c *Core) wakeDependents(idx int) {
	// Scan forward from idx+1 to tail for the next load; if it is a
	// dependent unissued load, issue it now.
	i := idx + 1
	if i == c.cfg.ROBSize {
		i = 0
	}
	for i != c.tail {
		e := &c.rob[i]
		if e.kind == Load {
			if e.depends && !e.issued {
				c.maybeIssueLoad(i)
			}
			return // only the immediately next load can depend on idx
		}
		i++
		if i == c.cfg.ROBSize {
			i = 0
		}
	}
}

// prevLoadIndex finds the most recent load older than idx: the producer
// recorded at dispatch, if it is still in flight. Loads retire in order,
// so once the recorded producer has left the ROB (its slot is no longer
// between head and idx in ring order — including when the slot was reused
// by a younger entry), no older load remains either.
//
//moca:hotpath
func (c *Core) prevLoadIndex(idx int) (int, bool) {
	p := int(c.rob[idx].prevLoad)
	if p < 0 {
		return 0, false
	}
	n := c.cfg.ROBSize
	if (p-c.head+n)%n < (idx-c.head+n)%n {
		return p, true
	}
	return 0, false
}

func (c *Core) push(e robEntry) int {
	idx := c.tail
	c.rob[idx] = e
	c.tail++
	if c.tail == c.cfg.ROBSize {
		c.tail = 0
	}
	c.occupancy++
	return idx
}

func (c *Core) translate(vaddr uint64, write bool) (uint64, bool) {
	paddr, ok := c.xlate.Translate(vaddr, write)
	if !ok {
		c.faulted = fmt.Errorf("cpu: core %d: out of physical memory translating %#x", c.ID, vaddr)
		return 0, false
	}
	return paddr, true
}

// Stream buffering: peek/consume with Compute batch expansion.

type fetchBuf struct {
	in    Instr
	valid bool
}

// peek returns the next instruction without consuming it. Compute batches
// are surfaced one instruction at a time via consumeComputeOne. The valid
// fetch-buffer case is split out so it inlines into dispatch.
//
//moca:hotpath
func (c *Core) peek() (Instr, bool) {
	if c.fb.valid {
		return c.fb.in, true
	}
	return c.refill()
}

//moca:hotpath
func (c *Core) refill() (Instr, bool) {
	if c.streamDone {
		return Instr{}, false
	}
	var in Instr
	if c.batch != nil {
		if c.bpos == len(c.bbuf) && !c.nextBatch() {
			c.streamDone = true
			return Instr{}, false
		}
		in = c.bbuf[c.bpos]
		c.bpos++
	} else {
		var ok bool
		in, ok = c.stream.Next()
		if !ok {
			c.streamDone = true
			return Instr{}, false
		}
	}
	if in.Kind == Compute && in.N < 1 {
		in.N = 1
	}
	c.fb = fetchBuf{in: in, valid: true}
	return c.fb.in, true
}

// nextBatch replaces the drained bbuf view with the stream's next batch:
// borrowed in place when the stream supports it, staged through ibuf
// otherwise. Returns false at end of stream.
func (c *Core) nextBatch() bool {
	c.bpos = 0
	if c.borrow != nil {
		c.bbuf = c.borrow.NextBatch()
		return len(c.bbuf) > 0
	}
	n := c.batch.Refill(c.ibuf[:])
	c.bbuf = c.ibuf[:n]
	return n > 0
}

func (c *Core) consume() { c.fb.valid = false }

func (c *Core) consumeComputeOne() {
	c.fb.in.N--
	if c.fb.in.N <= 0 {
		c.fb.valid = false
	}
}
