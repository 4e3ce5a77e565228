package sim

// Windowed execution (DESIGN.md "Windowed execution").
//
// The system is partitioned into shards that each own a private event
// queue: one shard per core (cpu, L1/L2, private TLB state), one per
// memory channel (controller + banks), and the coordinator (migration
// epochs and copy pacing). Time advances in fixed windows of windowCycles
// CPU cycles. Within a window the channel shards run first, then the core
// shards in lockstep, then the coordinator.
//
// Cross-shard traffic is posted straight into the receiving shard's queue.
// The core->channel link is a delayed event with a fixed latency of one
// window: a message staged at local time t is delivered at t+window >=
// windowEnd, so it always lands in a strictly later channel window than
// the one that already ran. Channel->core completions need no added
// latency because channel shards run their half of window k before core
// shards do: a fill completed at time t in [T, T+W) is posted into the
// owning core's queue before that core executes cycle t.

import (
	"context"
	"fmt"
	"sort"

	"moca/internal/event"
	"moca/internal/mem"
	"moca/internal/obs"
)

// windowCycles is the time-window length in CPU cycles. It is also the
// modeled interconnect latency of the core->channel link, so it shapes
// timing, not just scheduling.
const windowCycles = 8

// chanRetryGap is the backoff, in CPU cycles, before a channel shard
// retries submissions the controller rejected (mirrors the retry pacing
// the cache hierarchy used when it faced the controller directly).
const chanRetryGap = 8

// linkMsg is one submission crossing from a core (or the migration engine)
// to a memory channel.
type linkMsg struct {
	line  uint64 // global physical line address (migration monitor)
	local uint64 // channel-local address
	write bool
	sink  bool // deliver the completion back to the owning core
	core  int
	obj   uint64
	token uint64
}

// shardLink is the cache.Backend a core shard submits misses, writebacks,
// and (for the migration engine) copy traffic through. Each submission is
// posted into its channel's queue one link latency after the submitting
// queue's current time. The link never exerts backpressure: rejection and
// retry live channel-side, after the message has paid the link latency.
type shardLink struct {
	q     *event.Queue
	route *router
	chans []*chanShard
	delay event.Time
}

// Submit implements cache.Backend. The concrete sink is dropped: a
// completion is routed back to msg.core's hierarchy by the channel shard.
func (l *shardLink) Submit(lineAddr uint64, write bool, core int, obj uint64, sink mem.DoneSink, token uint64) bool {
	ch, local := l.route.locate(lineAddr)
	l.chans[ch].post(l.q.Now()+l.delay, linkMsg{
		line: lineAddr, local: local,
		write: write, sink: sink != nil, core: core, obj: obj, token: token,
	})
	return true
}

// Channel-shard event opcodes.
const (
	chopDeliver int32 = iota // i64 = inbox slot of the arriving linkMsg
	chopRetry                // retry backpressured submissions
)

// chanShard owns one memory controller and its private event queue. It
// applies link deliveries at their exact arrival times, holds rejected
// ones in an arrival-ordered pending queue with paced retries, and hands
// completions to the owning core shard.
type chanShard struct {
	q     *event.Queue
	ctrl  *mem.Controller
	route *router
	cycle event.Time

	inbox      []linkMsg // in-flight deliveries, indexed by chopDeliver i64
	free       []int     // inbox slots whose message has been delivered
	pending    []linkMsg // rejected submissions, retried in arrival order
	pendHead   int
	retryArmed bool

	sinks []mem.DoneSink // per-core completion sinks: the core shards
	bp    []uint64       // per-core rejected-submission counts

	// copyDrops counts migration copies abandoned under controller
	// backpressure (the best-effort path), mirrored into the
	// mem.migration_copy_drops obs counter so the loss is observable.
	copyDrops uint64
	reg       *obs.Registry
	dropCtr   *obs.Counter
}

// newChanShard builds a channel shard around the controller ctrlBuild
// returns. sinks holds one completion sink per core; route supplies the
// migration monitor's access hook.
func newChanShard(ctrlBuild func(q *event.Queue) (*mem.Controller, error), route *router, sinks []mem.DoneSink, cycle event.Time) (*chanShard, error) {
	cs := &chanShard{q: event.NewQueue(), route: route, cycle: cycle, sinks: sinks, bp: make([]uint64, len(sinks))}
	ctrl, err := ctrlBuild(cs.q)
	if err != nil {
		return nil, err
	}
	cs.ctrl = ctrl
	return cs, nil
}

// post schedules m's delivery at time at, parking it in a free inbox slot
// until then.
func (cs *chanShard) post(at event.Time, m linkMsg) {
	var slot int
	if n := len(cs.free); n > 0 {
		slot = cs.free[n-1]
		cs.free = cs.free[:n-1]
		cs.inbox[slot] = m
	} else {
		slot = len(cs.inbox)
		cs.inbox = append(cs.inbox, m)
	}
	cs.q.Post(at, cs, chopDeliver, int64(slot), nil)
}

// OnEvent implements event.Handler.
func (cs *chanShard) OnEvent(now event.Time, op int32, i64 int64, _ any) {
	switch op {
	case chopDeliver:
		m := cs.inbox[i64]
		cs.free = append(cs.free, int(i64))
		if cs.route.onAccess != nil {
			cs.route.onAccess(m.line)
		}
		cs.deliver(now, m)
	case chopRetry:
		cs.retryArmed = false
		cs.drainPending(now)
	}
}

func (cs *chanShard) deliver(now event.Time, m linkMsg) {
	if cs.pendHead < len(cs.pending) {
		// Preserve per-channel arrival order behind earlier rejections.
		cs.pending = append(cs.pending, m)
		cs.armRetry(now)
		return
	}
	cs.try(now, m)
}

func (cs *chanShard) try(now event.Time, m linkMsg) {
	var sink mem.DoneSink
	if m.sink {
		sink = cs.sinks[m.core]
	}
	if cs.ctrl.EnqueueLine(m.local, m.write, m.core, m.obj, sink, m.token) {
		return
	}
	if m.core < 0 {
		// Migration copy traffic is best-effort under backpressure.
		cs.dropCopy()
		return
	}
	cs.bp[m.core]++
	cs.pending = append(cs.pending, m)
	cs.armRetry(now)
}

func (cs *chanShard) drainPending(now event.Time) {
	for cs.pendHead < len(cs.pending) {
		m := cs.pending[cs.pendHead]
		var sink mem.DoneSink
		if m.sink {
			sink = cs.sinks[m.core]
		}
		if !cs.ctrl.EnqueueLine(m.local, m.write, m.core, m.obj, sink, m.token) {
			if m.core < 0 {
				// Queued migration copies stay best-effort: drop instead
				// of blocking demand traffic behind them.
				cs.dropCopy()
				cs.pendHead++
				continue
			}
			cs.bp[m.core]++
			cs.armRetry(now)
			return
		}
		cs.pendHead++
	}
	cs.pending = cs.pending[:0]
	cs.pendHead = 0
}

// dropCopy records one migration copy abandoned under backpressure. The
// counter is registered lazily on the first drop so runs that never drop
// keep their metrics snapshots unchanged.
func (cs *chanShard) dropCopy() {
	cs.copyDrops++
	if cs.reg != nil {
		if cs.dropCtr == nil {
			cs.dropCtr = cs.reg.Counter("mem.migration_copy_drops")
		}
		cs.dropCtr.Inc()
	}
}

// MigrationCopyDrops sums abandoned migration copies across channels
// (whole run, including warmup; the obs counter covers the measured
// window only).
func (s *System) MigrationCopyDrops() uint64 {
	var n uint64
	for _, cs := range s.chans {
		n += cs.copyDrops
	}
	return n
}

func (cs *chanShard) armRetry(now event.Time) {
	if cs.retryArmed {
		return
	}
	cs.retryArmed = true
	cs.q.PostAfter(chanRetryGap*cs.cycle, cs, chopRetry, 0, nil)
}

// Core-shard event opcodes (coreCtx is the handler).
const (
	copFill int32 = iota // i64 = token: a completed memory request
)

// MemDone implements mem.DoneSink for the channel shards: a completion is
// posted into the core's queue at its completion time. Channels run before
// cores within a window, so that time is never in the core's past.
func (c *coreCtx) MemDone(token uint64, at event.Time) {
	c.q.Post(at, c, copFill, int64(token), nil)
}

// OnEvent implements event.Handler: completions enter the hierarchy at
// their exact completion times.
func (c *coreCtx) OnEvent(now event.Time, op int32, i64 int64, _ any) {
	if op == copFill {
		c.hier.MemDone(uint64(i64), now)
	}
}

// runPhase advances the system in windows until every core has retired
// target instructions beyond its current count, calling onCross(core, at)
// once per core at its exact crossing cycle.
func (s *System) runPhase(ctx context.Context, target uint64, onCross func(*coreCtx, event.Time)) error {
	if target == 0 {
		return nil
	}
	for _, c := range s.cores {
		c.base = c.core.Instructions()
		c.crossed = false
		c.counted = false
		c.frozen = false
		c.tickAt = s.simNow
	}
	s.phaseTarget = target
	remaining := len(s.cores)
	done := ctx.Done()
	// Watchdog: generous IPC floor of 1/400 plus fixed slack.
	maxCycles := target*400 + 50_000_000
	var cycles, windows uint64
	for remaining > 0 {
		if s.cfg.Progress != nil && windows&63 == 0 {
			s.reportProgress()
		}
		windows++
		if cycles > maxCycles {
			crossed := 0
			for _, c := range s.cores {
				if c.crossed {
					crossed++
				}
			}
			return fmt.Errorf("sim: %s: watchdog expired after %d cycles (%d/%d cores finished %d instructions)",
				s.cfg.Name, cycles, crossed, len(s.cores), target)
		}
		if done != nil {
			select {
			case <-done:
				return fmt.Errorf("sim: %s: canceled after %d cycles: %w", s.cfg.Name, cycles, ctx.Err())
			default:
			}
		}
		windowEnd := s.simNow + s.window

		// Channel shards run their half of the window first; their
		// completions post straight into the core queues.
		if err := s.runChannelPhase(windowEnd); err != nil {
			return err
		}
		// Core shards run the window cycle by cycle.
		s.coreWindow(windowEnd, target, onCross)
		// The coordinator queue (migration epochs and copy pacing) runs
		// last, after every core has finished the window.
		if we := windowEnd - 1; s.q.QuietUntil(we) {
			s.q.AdvanceTo(we)
		} else {
			s.q.RunUntil(we)
		}
		for _, c := range s.cores {
			if c.runErr != nil {
				return c.runErr
			}
			if c.crossed && !c.counted {
				c.counted = true
				remaining--
				if c.frozen {
					// Backpressure now accrues channel-side; fold the
					// rejected-submission count into the frozen snapshot.
					c.snapshot.Hier.BackPressure += s.bpFor(c.proc)
				}
			}
		}
		s.simNow = windowEnd
		cycles += uint64(s.window / s.cycle)
	}
	if s.cfg.Progress != nil {
		s.reportProgress()
	}
	return nil
}

// reportProgress invokes the Progress hook with the run's completion so
// far: the slowest core's clamped per-phase progress plus the credit from
// completed phases. Runs between two windows.
func (s *System) reportProgress() {
	min := s.phaseTarget
	for _, c := range s.cores {
		n := c.core.Instructions() - c.base
		if n > s.phaseTarget {
			// Cores past their quota keep executing for contention; their
			// surplus is not phase progress.
			n = s.phaseTarget
		}
		if n < min {
			min = n
		}
	}
	done := s.progressBase + min
	if done > s.progressTotal {
		done = s.progressTotal
	}
	s.cfg.Progress(done, s.progressTotal)
}

// ObsSnapshot captures the live metrics registry (nil-safe: empty when
// metrics are disabled). Safe only from a Config.Progress callback — which
// runs between two windows — or after the run returns; calling it from
// another goroutine mid-run is a data race.
func (s *System) ObsSnapshot() *obs.Snapshot {
	return s.reg.Snapshot()
}

// runChannelPhase drains every channel shard's queue up to the window
// horizon. When no channel has anything due this window the pass is a
// pure clock advance, so the recover scaffolding and per-shard RunUntil
// calls in chanWindow are elided.
func (s *System) runChannelPhase(windowEnd event.Time) error {
	we := windowEnd - 1
	for _, cs := range s.chans {
		if !cs.q.QuietUntil(we) {
			return s.chanWindow(we)
		}
	}
	for _, cs := range s.chans {
		cs.q.AdvanceTo(we)
	}
	return nil
}

// chanWindow runs every channel shard up to the inclusive bound we. One
// recover covers the whole pass (a panic is attributed to the shard that
// was running); a shard with nothing due by we only has its clock advanced.
func (s *System) chanWindow(we event.Time) (err error) {
	cur := -1
	defer func() {
		if r := recover(); r != nil {
			cs := s.chans[cur]
			err = fmt.Errorf("sim: %s: channel shard %s: panic: %v", s.cfg.Name, cs.ctrl.Name, r)
		}
	}()
	for ci, cs := range s.chans {
		cur = ci
		// Quiet guard: most windows a channel only holds a wake scheduled
		// beyond the bound, and the inlined check replaces the call.
		if cs.q.QuietUntil(we) {
			cs.q.AdvanceTo(we)
		} else {
			cs.q.RunUntil(we)
		}
	}
	return nil
}

// coreWindow advances every core shard through the window ending at
// windowEnd, in lockstep, one cycle at a time in ascending core order, so
// page faults occur in (cycle, core) order. target is the phase quota and
// onCross the crossing callback. A panicking core shard is recovered into
// a keyed error on that core; the remaining cores skip the rest of the
// window and the run fails when the window ends.
//
// With the fast path on, a core may batch ahead of the lockstep cycle t:
// c.tickAt is its private clock cursor (the next cycle it still has to
// execute), and cycles below it are skipped. Batched spans are proven
// fault-free (no memory ops, no translations), so skipping them cannot
// reorder any page fault.
func (s *System) coreWindow(windowEnd event.Time, target uint64, onCross func(*coreCtx, event.Time)) {
	cur := -1
	defer func() {
		if r := recover(); r != nil {
			c := s.cores[cur]
			c.runErr = fmt.Errorf("sim: %s: core shard %d (%s): panic: %v", s.cfg.Name, cur, c.app.Spec.Name, r)
			c.dead = true
		}
	}()
	for t := windowEnd - s.window; t < windowEnd; {
		// next is the earliest cycle any core still has to execute: when
		// every core is batched ahead of t the loop jumps straight to it
		// instead of walking the skipped cycles one by one. A core's queue
		// holds no events inside its batched span (tryBatch bounded the
		// batch by NextTime and nothing external posts mid-phase), so the
		// jump cannot run an event late.
		next := windowEnd
		for i, c := range s.cores {
			if c.dead {
				continue
			}
			if s.fastpath && c.tickAt > t {
				if c.tickAt < next {
					next = c.tickAt
				}
				continue // a batch already executed this cycle
			}
			cur = i
			if c.q.QuietUntil(t) {
				c.q.AdvanceTo(t)
			} else {
				c.q.RunUntil(t)
			}
			if s.fastpath {
				if n := s.tryBatch(c, t, windowEnd, target, onCross); n > 0 {
					if c.tickAt < next {
						next = c.tickAt
					}
					continue
				}
			}
			c.core.TickAt(t)
			c.tickAt = t + s.cycle
			next = t + s.cycle
			if err := c.core.Err(); err != nil {
				c.fail(s, i, err)
				continue
			}
			if c.crossed {
				continue
			}
			if c.core.Instructions()-c.base >= target {
				c.crossed = true
				if onCross != nil {
					onCross(c, t+s.cycle)
				}
			} else if c.core.Done() {
				// The stream ran dry before the quota: this core can never
				// cross, so fail now instead of spinning into the watchdog.
				// A replayed trace that ended on a decode error reports
				// that error, not a bare end-of-stream.
				short := target - (c.core.Instructions() - c.base)
				if serr := streamErr(c.stream); serr != nil {
					c.fail(s, i, fmt.Errorf("trace decode: %w", serr))
				} else {
					c.fail(s, i, fmt.Errorf("instruction stream ended %d instructions short of its %d quota", short, target))
				}
			}
		}
		t = next
	}
	for i, c := range s.cores {
		if c.dead {
			continue
		}
		// Drain the sub-cycle remainder: controller completion times are
		// not cycle-aligned, so fills can spawn hierarchy events that land
		// between the last tick (windowEnd-cycle) and the window end. They
		// belong to this window — running them now keeps every link
		// submission's staging time inside this window, so its delivery
		// lands after the channel window that already ran.
		cur = i
		if we := windowEnd - 1; c.q.QuietUntil(we) {
			c.q.AdvanceTo(we)
		} else {
			c.q.RunUntil(we)
		}
	}
}

// tryBatch retires a run of cycles for core c in one call, starting at
// cycle t. The batch is bounded by the window end and by the core's
// next queued event (NextTime deliberately ignores virtual events: an
// inline hit matures by clock comparison, not by an event run). The budget
// stops the batch on the exact cycle the instruction quota is crossed, so
// onCross observes the same timestamp the per-cycle loop would have
// produced. Returns the number of cycles batched (0: fall back to a
// normal tick).
//
//moca:hotpath
func (s *System) tryBatch(c *coreCtx, t, windowEnd event.Time, target uint64, onCross func(*coreCtx, event.Time)) int {
	end := windowEnd
	if nt, ok := c.q.NextTime(); ok && nt < end {
		end = nt
	}
	if end <= t {
		return 0
	}
	budget := ^uint64(0)
	if !c.crossed {
		budget = target - (c.core.Instructions() - c.base)
	}
	n, retired := c.core.FastForward(t, end, budget)
	if n == 0 {
		return 0
	}
	c.tickAt = t + event.Time(n)*s.cycle
	if retired > 0 && !c.crossed && c.core.Instructions()-c.base >= target {
		c.crossed = true
		if onCross != nil {
			onCross(c, c.tickAt)
		}
	}
	return n
}

// fail marks the core dead with a keyed error.
func (c *coreCtx) fail(s *System, i int, err error) {
	c.runErr = fmt.Errorf("sim: %s core %d (%s): %w", s.cfg.Name, i, c.app.Spec.Name, err)
	c.dead = true
}

// bpFor sums core's channel-side rejected submissions across channels.
func (s *System) bpFor(core int) uint64 {
	var n uint64
	for _, cs := range s.chans {
		n += cs.bp[core]
	}
	return n
}

// resetShardStats clears the window-accounting the shards accumulate on
// behalf of core statistics (the warmup/measure boundary).
func (s *System) resetShardStats() {
	for _, cs := range s.chans {
		for i := range cs.bp {
			cs.bp[i] = 0
		}
	}
}

// flushTrace merges the per-shard run-trace stages into the user's sink in
// (timestamp, stage, staging order) order. Stage IDs are fixed (0 =
// OS/coordinator, then cores, then channels), so the merged stream is a
// pure function of per-stage content.
func (s *System) flushTrace() {
	if s.runTrace == nil || len(s.traceStages) == 0 {
		return
	}
	type staged struct {
		ev    obs.Event
		stage int
		seq   int
	}
	var all []staged
	var dropped uint64
	for si, st := range s.traceStages {
		for i, ev := range st.Events() {
			all = append(all, staged{ev: ev, stage: si, seq: i})
		}
		dropped += st.Dropped()
		st.Reset()
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ev.At != all[j].ev.At {
			return all[i].ev.At < all[j].ev.At
		}
		if all[i].stage != all[j].stage {
			return all[i].stage < all[j].stage
		}
		return all[i].seq < all[j].seq
	})
	for _, e := range all {
		s.runTrace.Emit(e.ev)
	}
	s.runTrace.AddDropped(dropped)
}
