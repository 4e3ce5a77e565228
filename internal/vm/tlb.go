package vm

// TLB is a small hashed set-associative translation lookaside buffer with
// per-set LRU replacement. The paper describes the TLB/page-walk path
// (Section IV-D) but does not evaluate its timing, so the simulator uses
// the TLB for statistics only; hit/miss counts are reported alongside the
// other metrics. Lookup probes one set (at most `ways` slots) instead of
// scanning every entry — the per-access cost no longer grows with the
// entry budget.
type TLB struct {
	sets     int // power of two
	ways     int
	setShift uint // log2(sets), for the index fold
	slots    []tlbSlot
	useClock uint64
	hits     uint64
	misses   uint64
}

type tlbSlot struct {
	vpage   uint64
	frame   Frame
	valid   bool
	lastUse uint64
}

// tlbWays is the associativity for entry budgets of at least one full set
// (64 entries → 16 sets × 4 ways).
const tlbWays = 4

// NewTLB builds a TLB with the given entry count (64 is typical). Budgets
// below one set degenerate to a single fully-associative set.
func NewTLB(entries int) *TLB {
	if entries <= 0 {
		entries = 64
	}
	ways := tlbWays
	if entries < ways {
		ways = entries
	}
	sets := 1
	for sets*2*ways <= entries {
		sets *= 2
	}
	shift := uint(0)
	for s := sets; s > 1; s >>= 1 {
		shift++
	}
	return &TLB{sets: sets, ways: ways, setShift: shift, slots: make([]tlbSlot, sets*ways)}
}

// setOf folds the whole virtual page number into the set index by XORing
// successive setShift-wide chunks. Unlike taking the low bits alone, pages
// strided by a multiple of the set count still spread across sets; unlike
// a full multiplicative hash, any aligned run of `sets` consecutive pages
// still maps exactly one page per set (each chunk XOR is a bijection on
// the low chunk), so dense sequential footprints never conflict-miss.
//
//moca:hotpath
func (t *TLB) setOf(vpage uint64) int {
	if t.sets == 1 {
		return 0
	}
	h := vpage
	for v := vpage >> t.setShift; v != 0; v >>= t.setShift {
		h ^= v
	}
	return int(h) & (t.sets - 1)
}

// set returns the slot range backing vpage's set.
//
//moca:hotpath
func (t *TLB) set(vpage uint64) []tlbSlot {
	base := t.setOf(vpage) * t.ways
	return t.slots[base : base+t.ways]
}

// Lookup returns the cached translation for a virtual page.
//
//moca:hotpath
func (t *TLB) Lookup(vpage uint64) (Frame, bool) {
	set := t.set(vpage)
	for i := range set {
		s := &set[i]
		if s.valid && s.vpage == vpage {
			t.useClock++
			s.lastUse = t.useClock
			t.hits++
			return s.frame, true
		}
	}
	t.misses++
	return Frame{}, false
}

// Insert caches a translation, evicting the set's LRU entry if full.
//
//moca:hotpath
func (t *TLB) Insert(vpage uint64, f Frame) {
	set := t.set(vpage)
	victim := 0
	var oldest uint64
	for i := range set {
		s := &set[i]
		if s.valid && s.vpage == vpage {
			s.frame = f
			return
		}
		if !s.valid {
			victim = i
			oldest = 0
			break
		}
		if i == 0 || s.lastUse < oldest {
			victim, oldest = i, s.lastUse
		}
	}
	t.useClock++
	set[victim] = tlbSlot{vpage: vpage, frame: f, valid: true, lastUse: t.useClock}
}

// Invalidate drops the translation for a virtual page (the migration
// shootdown). Reports whether an entry was present.
//
//moca:hotpath
func (t *TLB) Invalidate(vpage uint64) bool {
	set := t.set(vpage)
	for i := range set {
		s := &set[i]
		if s.valid && s.vpage == vpage {
			*s = tlbSlot{}
			return true
		}
	}
	return false
}

// Hits returns the hit count.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the miss count.
func (t *TLB) Misses() uint64 { return t.misses }

// HitRate returns hits / (hits + misses).
func (t *TLB) HitRate() float64 {
	total := t.hits + t.misses
	if total == 0 {
		return 0
	}
	return float64(t.hits) / float64(total)
}
