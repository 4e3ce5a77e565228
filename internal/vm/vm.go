// Package vm models the virtual-memory substrate MOCA's page allocator
// plugs into: 4 KB pages, per-process page tables, and per-module physical
// frame pools. A physical address encodes (module, frame, offset) so the
// memory system can route each line to the channel owning its module —
// the mechanism by which page placement selects a memory module (paper
// Section IV-D).
package vm

import (
	"fmt"
	"math/bits"

	"moca/internal/mem"
)

const (
	// PageShift and PageBytes define the 4 KB page size.
	PageShift = 12
	PageBytes = 1 << PageShift

	// moduleShift places the module ID above a 1 TB per-module offset
	// space in the composed physical address.
	moduleShift = 40
	offsetMask  = (uint64(1) << moduleShift) - 1
)

// VPage returns the virtual page number containing vaddr.
func VPage(vaddr uint64) uint64 { return vaddr >> PageShift }

// Compose builds a physical address from a module ID, a frame number
// within the module, and a byte offset within the page.
func Compose(module int, frame uint64, offset uint64) uint64 {
	return uint64(module)<<moduleShift | frame<<PageShift | (offset & (PageBytes - 1))
}

// ModuleOf extracts the module ID from a physical address.
func ModuleOf(paddr uint64) int { return int(paddr >> moduleShift) }

// ModuleOffset extracts the byte offset within the module.
func ModuleOffset(paddr uint64) uint64 { return paddr & offsetMask }

// Module is one physical memory module: a pool of page frames backed by a
// specific memory technology.
type Module struct {
	ID   int
	Kind mem.Kind

	frames uint64
	next   uint64   // bump pointer for never-used frames
	free   []uint64 // recycled frames (LIFO)
}

// NewModule builds a frame pool of the given capacity (rounded down to
// whole pages).
func NewModule(id int, kind mem.Kind, capacityBytes uint64) (*Module, error) {
	if capacityBytes < PageBytes {
		return nil, fmt.Errorf("vm: module %d capacity %d smaller than a page", id, capacityBytes)
	}
	if capacityBytes>>PageShift > offsetMask>>PageShift {
		return nil, fmt.Errorf("vm: module %d capacity %d exceeds addressable range", id, capacityBytes)
	}
	return &Module{ID: id, Kind: kind, frames: capacityBytes >> PageShift}, nil
}

// Capacity returns the module size in bytes.
func (m *Module) Capacity() uint64 { return m.frames << PageShift }

// Frames returns the total frame count.
func (m *Module) Frames() uint64 { return m.frames }

// Used returns the number of allocated frames.
func (m *Module) Used() uint64 { return m.next - uint64(len(m.free)) }

// Free returns the number of available frames.
func (m *Module) Free() uint64 { return m.frames - m.Used() }

// Alloc takes a frame from the pool; ok=false when the module is full
// (the trigger for MOCA's next-best-module fallback).
func (m *Module) Alloc() (frame uint64, ok bool) {
	if n := len(m.free); n > 0 {
		frame = m.free[n-1]
		m.free = m.free[:n-1]
		return frame, true
	}
	if m.next >= m.frames {
		return 0, false
	}
	frame = m.next
	m.next++
	return frame, true
}

// Release returns a frame to the pool. Releasing an unallocated frame is a
// simulator bug and panics.
func (m *Module) Release(frame uint64) {
	if frame >= m.next {
		panic(fmt.Sprintf("vm: module %d: release of never-allocated frame %d", m.ID, frame))
	}
	m.free = append(m.free, frame)
	if uint64(len(m.free)) > m.next {
		panic(fmt.Sprintf("vm: module %d: double release detected", m.ID))
	}
}

// Frame is a physical page: a (module, frame-number) pair.
type Frame struct {
	Module int
	Number uint64
}

// ptSlot is one open-addressed page-table slot. vpage 0 is a legal key, so
// occupancy is an explicit flag rather than a sentinel value.
type ptSlot struct {
	vpage uint64
	frame Frame
	used  bool
}

// PageTable maps one process's virtual pages to physical frames. The
// store is a power-of-two, linear-probing open-addressed table: Lookup is
// once-per-simulated-access, so it must not pay Go-map hashing. The table
// is tombstone-free by construction — translations are only ever installed
// (Map) or updated in place (Remap), never removed — so probe chains never
// degrade and no deletion logic exists.
type PageTable struct {
	slots    []ptSlot
	mapped   int
	shift    uint // hash produces the top log2(len(slots)) bits
	walks    uint64
	resident []int // mapped pages per module ID, maintained on Map/Remap
}

// ptMinSlots is the initial table size (power of two).
const ptMinSlots = 64

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable {
	pt := &PageTable{}
	pt.init(ptMinSlots)
	return pt
}

func (pt *PageTable) init(size int) {
	pt.slots = make([]ptSlot, size)
	pt.shift = 64 - uint(bits.TrailingZeros(uint(size)))
}

// hash spreads vpage bits with a Fibonacci multiplicative hash and keeps
// the top bits, which a power-of-two mask would otherwise discard —
// sequential and strided vpages land on distinct home slots.
//
//moca:hotpath
func (pt *PageTable) hash(vpage uint64) int {
	return int((vpage * 0x9E3779B97F4A7C15) >> pt.shift)
}

// find returns the slot index holding vpage, or the first empty slot of
// its probe chain when absent.
//
//moca:hotpath
func (pt *PageTable) find(vpage uint64) int {
	mask := len(pt.slots) - 1
	i := pt.hash(vpage)
	for pt.slots[i].used && pt.slots[i].vpage != vpage {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the table once load passes ~75%, rehashing every live
// translation (no tombstones exist to skip).
//
//moca:hotpath
func (pt *PageTable) grow() {
	old := pt.slots
	pt.init(len(pt.slots) * 2)
	for i := range old {
		if old[i].used {
			j := pt.find(old[i].vpage)
			pt.slots[j] = old[i]
		}
	}
}

// Lookup finds the frame backing a virtual page. Every call models a page
// walk (the simulator translates once per access; TLB filtering is applied
// by the caller if modeled).
//
//moca:hotpath
func (pt *PageTable) Lookup(vpage uint64) (Frame, bool) {
	pt.walks++
	i := pt.find(vpage)
	if !pt.slots[i].used {
		return Frame{}, false
	}
	return pt.slots[i].frame, true
}

// Map installs a translation. Remapping a mapped page panics: the
// simulator never swaps implicitly — migration uses Remap.
//
//moca:hotpath
func (pt *PageTable) Map(vpage uint64, f Frame) {
	i := pt.find(vpage)
	if pt.slots[i].used {
		panic(fmt.Sprintf("vm: remap of vpage %#x", vpage))
	}
	pt.slots[i] = ptSlot{vpage: vpage, frame: f, used: true}
	pt.mapped++
	pt.countResident(f.Module, 1)
	if pt.mapped*4 > len(pt.slots)*3 {
		pt.grow()
	}
}

// Remap moves an existing translation to a new frame (page migration) and
// returns the old frame. The slot is updated in place — the key set never
// shrinks, which is what keeps the table tombstone-free. Remapping an
// unmapped page panics.
//
//moca:hotpath
func (pt *PageTable) Remap(vpage uint64, f Frame) Frame {
	i := pt.find(vpage)
	if !pt.slots[i].used {
		panic(fmt.Sprintf("vm: remap of unmapped vpage %#x", vpage))
	}
	old := pt.slots[i].frame
	pt.slots[i].frame = f
	pt.countResident(old.Module, -1)
	pt.countResident(f.Module, 1)
	return old
}

//moca:hotpath
func (pt *PageTable) countResident(module, delta int) {
	for len(pt.resident) <= module {
		pt.resident = append(pt.resident, 0)
	}
	pt.resident[module] += delta
}

// Mapped returns the number of installed translations.
func (pt *PageTable) Mapped() int { return pt.mapped }

// Walks returns the number of Lookup calls.
func (pt *PageTable) Walks() uint64 { return pt.walks }

// Resident returns the number of this process's pages mapped on one
// module, from counters maintained on Map/Remap — no table walk.
func (pt *PageTable) Resident(module int) int {
	if module < 0 || module >= len(pt.resident) {
		return 0
	}
	return pt.resident[module]
}

// ResidentByModule counts this process's mapped pages per module ID, the
// per-process placement census used in experiment reporting. The map is
// built from the maintained counters (O(modules), not O(mappings)); only
// modules with at least one resident page appear, matching the historical
// walk-the-table behavior.
func (pt *PageTable) ResidentByModule() map[int]int {
	out := make(map[int]int)
	for module, n := range pt.resident {
		if n > 0 {
			out[module] = n
		}
	}
	return out
}
