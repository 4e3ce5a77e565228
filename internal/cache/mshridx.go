package cache

import "math/bits"

// mshrIndex maps an in-flight line address to its pooled *mshrEntry
// through a fixed-capacity, power-of-two, linear-probing open-addressed
// table. The table is sized from the MSHR budget at construction (at most
// 50% load when every MSHR is occupied) so it never grows mid-run, and
// deletion uses backward-shift compaction instead of tombstones, so probe
// chains stay short for the whole run regardless of fill/drain churn.
// Line address 0 is a legal key; occupancy is the entry pointer itself.
type mshrIndex struct {
	addrs   []uint64
	entries []*mshrEntry
	shift   uint // hash produces the top log2(len(addrs)) bits
	n       int
}

// newMSHRIndex sizes the table for at most `budget` simultaneous entries.
func newMSHRIndex(budget int) *mshrIndex {
	size := 8
	for size < budget*2 {
		size *= 2
	}
	return &mshrIndex{
		addrs:   make([]uint64, size),
		entries: make([]*mshrEntry, size),
		shift:   64 - uint(bits.TrailingZeros(uint(size))),
	}
}

// hash spreads the line address (low 6 bits are always zero) with a
// Fibonacci multiplicative hash, keeping the top bits.
//
//moca:hotpath
func (ix *mshrIndex) hash(lineAddr uint64) int {
	return int((lineAddr * 0x9E3779B97F4A7C15) >> ix.shift)
}

// len returns the number of indexed in-flight lines.
//
//moca:hotpath
func (ix *mshrIndex) len() int { return ix.n }

// lookup returns the entry for lineAddr, or nil when not in flight.
//
//moca:hotpath
func (ix *mshrIndex) lookup(lineAddr uint64) *mshrEntry {
	mask := len(ix.addrs) - 1
	for i := ix.hash(lineAddr); ix.entries[i] != nil; i = (i + 1) & mask {
		if ix.addrs[i] == lineAddr {
			return ix.entries[i]
		}
	}
	return nil
}

// insert adds a mapping. The caller guarantees lineAddr is absent and the
// MSHR budget (hence the table's load bound) is respected.
//
//moca:hotpath
func (ix *mshrIndex) insert(lineAddr uint64, e *mshrEntry) {
	mask := len(ix.addrs) - 1
	i := ix.hash(lineAddr)
	for ix.entries[i] != nil {
		i = (i + 1) & mask
	}
	ix.addrs[i] = lineAddr
	ix.entries[i] = e
	ix.n++
}

// remove deletes a mapping, compacting the probe chain by shifting back
// any displaced entries (Knuth 6.4 R): no tombstones are left behind.
//
//moca:hotpath
func (ix *mshrIndex) remove(lineAddr uint64) {
	mask := len(ix.addrs) - 1
	i := ix.hash(lineAddr)
	for {
		if ix.entries[i] == nil {
			return // not present
		}
		if ix.addrs[i] == lineAddr {
			break
		}
		i = (i + 1) & mask
	}
	ix.n--
	for {
		ix.entries[i] = nil
		j := i
		for {
			j = (j + 1) & mask
			if ix.entries[j] == nil {
				return
			}
			// Move slot j into the hole at i unless j's home position
			// lies in the cyclic range (i, j] — then j is reachable from
			// its home without passing the hole and must stay.
			h := ix.hash(ix.addrs[j])
			if (j > i && (h <= i || h > j)) || (j < i && h <= i && h > j) {
				ix.addrs[i] = ix.addrs[j]
				ix.entries[i] = ix.entries[j]
				i = j
				break
			}
		}
	}
}
