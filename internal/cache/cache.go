// Package cache models the paper's per-core cache hierarchy (Table I):
// a 64 KB 2-way L1 data cache (2-cycle) and a unified 512 KB 16-way L2
// (20-cycle, the LLC), 64 B lines, LRU replacement, write-back and
// write-allocate, with MSHR-limited miss overlap (4 at L1, 20 at L2).
// The instruction cache is not modeled; code is a pseudo-object with high
// locality, consistent with Fig. 16 of the paper.
package cache

import "fmt"

// LineBytes is the cache line size throughout the hierarchy (Table I).
const LineBytes = 64

const lineShift = 6

// LineAddr returns the line-aligned address containing addr.
func LineAddr(addr uint64) uint64 { return addr &^ (LineBytes - 1) }

// Config sizes one cache level.
type Config struct {
	SizeBytes     int
	Ways          int
	LatencyCycles int
	MSHRs         int
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.SizeBytes%LineBytes != 0:
		return fmt.Errorf("cache: size %d not a positive multiple of the %d-byte line", c.SizeBytes, LineBytes)
	case c.Ways <= 0:
		return fmt.Errorf("cache: ways must be positive, got %d", c.Ways)
	case (c.SizeBytes/LineBytes)%c.Ways != 0:
		return fmt.Errorf("cache: %d lines not divisible into %d ways", c.SizeBytes/LineBytes, c.Ways)
	case c.LatencyCycles < 0:
		return fmt.Errorf("cache: negative latency")
	case c.MSHRs < 0:
		return fmt.Errorf("cache: negative MSHR count")
	}
	sets := c.SizeBytes / LineBytes / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Stats counts one cache level's activity.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// HitRate returns hits/accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

type line struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64
}

// Cache is one set-associative, LRU, write-back cache level. It is a
// functional model: timing is layered on by Hierarchy.
type Cache struct {
	cfg      Config
	sets     int
	setMask  uint64
	setShift uint   // log2(sets), cached off the per-access path
	lines    []line // sets * ways, row-major by set
	useClock uint64
	stats    Stats
}

// New builds a cache level.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / LineBytes / cfg.Ways
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		setMask:  uint64(sets - 1),
		setShift: uint(log2(sets)),
		lines:    make([]line, sets*cfg.Ways),
	}, nil
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the level's counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the counters (contents are preserved, so warm-up state
// carries into the measured region, as in Gem5 stat resets).
func (c *Cache) ResetStats() { c.stats = Stats{} }

//moca:hotpath
func (c *Cache) index(addr uint64) (set int, tag uint64) {
	l := addr >> lineShift
	return int(l & c.setMask), l >> c.setShift
}

//moca:hotpath
func (c *Cache) slot(set, way int) *line { return &c.lines[set*c.cfg.Ways+way] }

// Lookup accesses the cache. On a hit it updates recency (and the dirty bit
// for writes) and returns true. On a miss it returns false and changes
// nothing; the caller decides whether and when to Fill.
//
//moca:hotpath
func (c *Cache) Lookup(addr uint64, write bool) bool {
	c.stats.Accesses++
	set, tag := c.index(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		ln := c.slot(set, w)
		if ln.valid && ln.tag == tag {
			c.useClock++
			ln.lastUse = c.useClock
			if write {
				ln.dirty = true
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Probe reports whether addr is present without perturbing state or stats.
//
//moca:hotpath
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		ln := c.slot(set, w)
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// Victim describes a line displaced by Fill.
type Victim struct {
	Valid bool
	Addr  uint64
	Dirty bool
}

// Fill inserts the line containing addr, evicting the LRU way if the set is
// full, and returns the displaced line (if any). If the line is already
// present, Fill only updates recency/dirtiness.
//
//moca:hotpath
func (c *Cache) Fill(addr uint64, dirty bool) Victim {
	set, tag := c.index(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		ln := c.slot(set, w)
		if ln.valid && ln.tag == tag {
			c.useClock++
			ln.lastUse = c.useClock
			if dirty {
				ln.dirty = true
			}
			return Victim{}
		}
	}
	// Prefer an invalid way; otherwise evict the least recently used.
	victimWay := -1
	var oldest uint64
	for w := 0; w < c.cfg.Ways; w++ {
		ln := c.slot(set, w)
		if !ln.valid {
			victimWay = w
			break
		}
		if victimWay == -1 || ln.lastUse < oldest {
			victimWay, oldest = w, ln.lastUse
		}
	}
	ln := c.slot(set, victimWay)
	var v Victim
	if ln.valid {
		v = Victim{Valid: true, Addr: c.reconstruct(set, ln.tag), Dirty: ln.dirty}
		c.stats.Evictions++
		if ln.dirty {
			c.stats.Writebacks++
		}
	}
	c.useClock++
	*ln = line{tag: tag, valid: true, dirty: dirty, lastUse: c.useClock}
	return v
}

// Invalidate removes the line containing addr and reports whether the
// removed copy was dirty (for inclusive back-invalidation flushes).
//
//moca:hotpath
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set, tag := c.index(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		ln := c.slot(set, w)
		if ln.valid && ln.tag == tag {
			d := ln.dirty
			*ln = line{}
			return true, d
		}
	}
	return false, false
}

// SetDirty marks an already-present line dirty (used when a dirty L1 line
// is written back into L2 on eviction). Reports whether the line was found.
//
//moca:hotpath
func (c *Cache) SetDirty(addr uint64) bool {
	set, tag := c.index(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		ln := c.slot(set, w)
		if ln.valid && ln.tag == tag {
			ln.dirty = true
			return true
		}
	}
	return false
}

// Occupancy returns the number of valid lines (for tests and debugging).
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

func (c *Cache) reconstruct(set int, tag uint64) uint64 {
	return (tag<<c.setShift | uint64(set)) << lineShift
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
