package cache

import "math/bits"

// Stride prefetcher (optional, off by default — the paper's Table I system
// has none, and prefetching shifts the classification metrics MOCA relies
// on; the prefetch ablation quantifies exactly that).
//
// Detection is per memory object rather than per PC: the simulator's
// instruction stream carries object identities, and an object is the
// natural unit of streaming behavior here. An object whose consecutive
// accesses advance by a stable line stride gets Degree lines prefetched
// ahead into the L2. Prefetch fills do not count as demand misses and do
// not reach the profiler.

// PrefetchConfig tunes the optional stride prefetcher.
type PrefetchConfig struct {
	Enable bool
	// Degree is how many lines ahead to prefetch (default 8).
	Degree int
	// TableSize bounds the number of tracked objects (default 32).
	TableSize int
	// FilterSize bounds the usefulness filter: the number of
	// prefetched-but-not-yet-demanded line marks retained (default 1024).
	// When full, the oldest marks are evicted clock-wise; an evicted mark
	// only forfeits a Useful count, never correctness.
	FilterSize int
}

func (c *PrefetchConfig) setDefaults() {
	if c.Degree <= 0 {
		c.Degree = 8
	}
	if c.TableSize <= 0 {
		c.TableSize = 32
	}
	if c.FilterSize <= 0 {
		c.FilterSize = 1024
	}
}

// PrefetchStats counts prefetcher activity.
type PrefetchStats struct {
	Issued  uint64 // prefetch fetches sent to memory
	Useful  uint64 // prefetched lines later hit by demand accesses
	Late    uint64 // demand arrived while the prefetch was in flight
	Evicted uint64 // stale usefulness marks dropped at the filter's cap
}

// Accuracy returns useful/issued (late prefetches excluded).
func (s PrefetchStats) Accuracy() float64 {
	if s.Issued == 0 {
		return 0
	}
	return float64(s.Useful) / float64(s.Issued)
}

// Coverage returns the fraction of issued prefetches that demand accesses
// wanted — on time (useful) or while still in flight (late).
func (s PrefetchStats) Coverage() float64 {
	if s.Issued == 0 {
		return 0
	}
	return float64(s.Useful+s.Late) / float64(s.Issued)
}

type strideEntry struct {
	obj        uint64
	lastLine   uint64
	stride     int64
	confidence int
	lastUse    uint64
}

type prefetcher struct {
	cfg     PrefetchConfig
	entries []strideEntry
	clock   uint64

	// prefetched marks lines brought in by the prefetcher and not yet
	// touched by demand (for usefulness accounting). Bounded: stale marks
	// of lines demand never touched are evicted rather than accumulating
	// for the length of the run.
	prefetched pfFilter
	stats      PrefetchStats
}

func newPrefetcher(cfg PrefetchConfig) *prefetcher {
	cfg.setDefaults()
	p := &prefetcher{
		cfg:     cfg,
		entries: make([]strideEntry, cfg.TableSize),
	}
	p.prefetched.init(cfg.FilterSize)
	return p
}

// observe updates stride detection with a demand access and returns the
// line addresses to prefetch (nil most of the time).
//
//moca:hotpath
func (p *prefetcher) observe(obj uint64, lineAddr uint64) []uint64 {
	e := p.lookup(obj)
	p.clock++
	e.lastUse = p.clock

	line := lineAddr / LineBytes
	if e.obj != obj {
		*e = strideEntry{obj: obj, lastLine: line, lastUse: p.clock}
		return nil
	}
	stride := int64(line) - int64(e.lastLine)
	e.lastLine = line
	switch {
	case stride == 0:
		return nil
	case stride == e.stride:
		if e.confidence < 3 {
			e.confidence++
		}
	default:
		e.stride = stride
		e.confidence = 0
		return nil
	}
	if e.confidence < 2 {
		return nil
	}
	out := make([]uint64, 0, p.cfg.Degree)
	for i := 1; i <= p.cfg.Degree; i++ {
		next := int64(line) + e.stride*int64(i)
		if next <= 0 {
			break
		}
		out = append(out, uint64(next)*LineBytes)
	}
	return out
}

//moca:hotpath
func (p *prefetcher) lookup(obj uint64) *strideEntry {
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range p.entries {
		e := &p.entries[i]
		if e.obj == obj && (e.lastLine != 0 || e.stride != 0 || e.lastUse != 0) {
			return e
		}
		if e.lastUse < oldest {
			victim, oldest = i, e.lastUse
		}
	}
	return &p.entries[victim]
}

// markPrefetched records a line the prefetcher filled.
//
//moca:hotpath
func (p *prefetcher) markPrefetched(lineAddr uint64) {
	if p.prefetched.insert(lineAddr) {
		p.stats.Evicted++
	}
}

// demandTouch accounts a demand access to a possibly-prefetched line.
//
//moca:hotpath
func (p *prefetcher) demandTouch(lineAddr uint64) {
	if p.prefetched.remove(lineAddr) {
		p.stats.Useful++
	}
}

// evicted forgets a line that left the cache before being used.
//
//moca:hotpath
func (p *prefetcher) evicted(lineAddr uint64) {
	p.prefetched.remove(lineAddr)
}

// pfFilter is a bounded open-addressed set of line addresses with
// clock-hand eviction: when the filter is at capacity, the hand sweeps
// the slot array and drops the next live mark (entries are never
// re-referenced after insertion, so the sweep order approximates FIFO).
// Deletion is backward-shift compaction — no tombstones, and the table
// never grows, so a long run's memory stays at the configured cap.
type pfSlot struct {
	addr uint64
	live bool
}

type pfFilter struct {
	slots []pfSlot
	shift uint
	cap   int
	n     int
	hand  int
}

func (f *pfFilter) init(capacity int) {
	size := 8
	for size < capacity*2 {
		size *= 2
	}
	f.slots = make([]pfSlot, size)
	f.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	f.cap = capacity
}

//moca:hotpath
func (f *pfFilter) hash(addr uint64) int {
	return int((addr * 0x9E3779B97F4A7C15) >> f.shift)
}

// insert adds a mark, evicting the clock-hand victim when at capacity.
// Reports whether an eviction happened.
//
//moca:hotpath
func (f *pfFilter) insert(addr uint64) (evicted bool) {
	mask := len(f.slots) - 1
	i := f.hash(addr)
	for f.slots[i].live {
		if f.slots[i].addr == addr {
			return false // already marked
		}
		i = (i + 1) & mask
	}
	if f.n >= f.cap {
		f.evictClock()
		evicted = true
		// The victim's removal may have compacted the probe chain; redo
		// the probe for the insertion slot.
		i = f.hash(addr)
		for f.slots[i].live {
			i = (i + 1) & mask
		}
	}
	f.slots[i] = pfSlot{addr: addr, live: true}
	f.n++
	return evicted
}

// evictClock removes the first live mark at or after the hand.
//
//moca:hotpath
func (f *pfFilter) evictClock() {
	mask := len(f.slots) - 1
	for !f.slots[f.hand].live {
		f.hand = (f.hand + 1) & mask
	}
	victim := f.slots[f.hand].addr
	f.hand = (f.hand + 1) & mask
	f.remove(victim)
}

// remove deletes a mark, reporting whether it was present. The probe
// chain is compacted by shifting back displaced entries (Knuth 6.4 R).
//
//moca:hotpath
func (f *pfFilter) remove(addr uint64) bool {
	mask := len(f.slots) - 1
	i := f.hash(addr)
	for {
		if !f.slots[i].live {
			return false
		}
		if f.slots[i].addr == addr {
			break
		}
		i = (i + 1) & mask
	}
	f.n--
	for {
		f.slots[i] = pfSlot{}
		j := i
		for {
			j = (j + 1) & mask
			if !f.slots[j].live {
				return true
			}
			h := f.hash(f.slots[j].addr)
			if (j > i && (h <= i || h > j)) || (j < i && h <= i && h > j) {
				f.slots[i] = f.slots[j]
				i = j
				break
			}
		}
	}
}

// len returns the number of live marks (for tests).
func (f *pfFilter) len() int { return f.n }
