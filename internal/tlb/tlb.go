// Package tlb implements a software-visible translation lookaside buffer.
//
// The TLB caches virtual-to-physical page translations together with the
// page protection and the modify-trap flag. As on the PA-RISC, address
// translation proceeds in parallel with the (virtually indexed) cache
// lookup, and the resulting physical frame is compared against the
// cache's physical tag. The operating system must invalidate TLB entries
// whenever it changes a translation or protection — the consistency
// algorithm depends on stale-protection accesses being impossible.
package tlb

import (
	"vcache/internal/arch"
	"vcache/internal/sim"
)

// Entry is one cached translation.
type Entry struct {
	PFN  arch.PFN
	Prot arch.Prot
	// NeedModTrap is set when the underlying page-table entry has not
	// yet recorded a modification: the first write through this entry
	// traps to the kernel (the PA-RISC "TLB dirty bit" trap), which is
	// how the paper's implementation learns that a present cache page
	// has become dirty without taking a protection fault on every
	// store ("sets P[p].cache_dirty whenever the virtual memory system
	// sets the page-modified bit yet the number of mapped bits is
	// one").
	NeedModTrap bool
	// Uncached makes accesses through this translation bypass the
	// caches entirely. Used by the Sun-style policy of Table 5, which
	// makes unaligned aliases non-cacheable instead of managing them.
	Uncached bool
}

// Walker is the page-table walk the hardware performs on a TLB miss.
// It is implemented by the pmap layer.
type Walker interface {
	// Walk returns the translation for (space, vpn), or ok=false when
	// no mapping exists (which the machine raises as a mapping fault).
	Walk(space arch.SpaceID, vpn arch.VPN) (Entry, bool)
}

type key struct {
	space arch.SpaceID
	vpn   arch.VPN
}

type slot struct {
	key   key
	entry Entry
	valid bool
	lru   uint64
}

// Stats counts TLB events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Shootdowns uint64
}

// TLB is a fully associative, LRU-replaced translation cache.
// It is not safe for concurrent use.
//
// The slots are found through index, a flat open-addressed hash table:
// index[c] == 0 marks an empty cell and index[c] == i+1 names slots[i].
// It holds exactly the valid slots, is at least twice as long as slots
// (so every probe run ends at an empty cell), probes linearly from a
// multiplicative hash of the key, and deletes by backward shift, so it
// needs no tombstones and never allocates after New. The index only
// finds slots; hits, misses, LRU stamps and victim choice are decided by
// the slots alone, exactly as in a linear search over them.
type TLB struct {
	slots []slot
	index []int32
	shift uint // 64 - log2(len(index)): the hash's top bits pick the home cell
	clock *sim.Clock
	tick  uint64
	stats Stats
}

// New returns a TLB with the given number of entries.
func New(entries int, clock *sim.Clock) *TLB {
	if entries <= 0 {
		entries = 96 // the PA7000's combined TLB size class
	}
	cells, shift := 2, uint(63)
	for cells < 2*entries {
		cells, shift = cells*2, shift-1
	}
	return &TLB{
		slots: make([]slot, entries),
		index: make([]int32, cells),
		shift: shift,
		clock: clock,
	}
}

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// Clone returns an independent copy of the TLB charging cycles to clock
// (snapshot/fork support). Slots, the index and the LRU tick are all
// preserved so a fork's replacement decisions replay identically.
func (t *TLB) Clone(clock *sim.Clock) *TLB {
	t2 := *t
	t2.clock = clock
	t2.slots = append([]slot(nil), t.slots...)
	t2.index = append([]int32(nil), t.index...)
	return &t2
}

// home returns the index cell where k's probe run starts.
func (t *TLB) home(k key) int {
	return int(((uint64(k.space) << 40) ^ uint64(k.vpn)) * 0x9e3779b97f4a7c15 >> t.shift)
}

// find returns the index cell holding k and its slot, or the empty cell
// that ends k's probe run and slot -1.
func (t *TLB) find(k key) (cell, slot int) {
	mask := len(t.index) - 1
	for cell = t.home(k); ; cell = (cell + 1) & mask {
		s := int(t.index[cell]) - 1
		if s < 0 || t.slots[s].key == k {
			return cell, s
		}
	}
}

// unlink empties index cell c by backward shift: each later entry of
// the probe run whose home cell does not lie cyclically after the hole
// moves into it, so every remaining key stays reachable from its home.
func (t *TLB) unlink(c int) {
	mask := len(t.index) - 1
	for next := (c + 1) & mask; t.index[next] != 0; next = (next + 1) & mask {
		h := t.home(t.slots[t.index[next]-1].key)
		if (next-h)&mask >= (next-c)&mask {
			t.index[c] = t.index[next]
			c = next
		}
	}
	t.index[c] = 0
}

// Lookup translates (space, vpn), walking the page tables via w on a
// miss. ok=false means no translation exists.
func (t *TLB) Lookup(space arch.SpaceID, vpn arch.VPN, w Walker) (Entry, bool) {
	t.tick++
	k := key{space, vpn}
	if _, i := t.find(k); i >= 0 {
		t.stats.Hits++
		t.slots[i].lru = t.tick
		return t.slots[i].entry, true
	}
	t.stats.Misses++
	t.clock.Charge(sim.CatAccess, t.clock.Timing().TLBMiss)
	e, ok := w.Walk(space, vpn)
	if !ok {
		return Entry{}, false
	}
	t.insert(k, e)
	return e, true
}

// Peek reports the resident translation for (space, vpn) without any
// bookkeeping at all — no tick, no hit count, no LRU update. The bulk
// page paths use it to learn the physical frame and cacheability after
// the first word's full access has refilled the TLB; the accesses they
// then model in bulk go through TouchRepeat, which does the accounting.
func (t *TLB) Peek(space arch.SpaceID, vpn arch.VPN) (Entry, bool) {
	if _, i := t.find(key{space, vpn}); i >= 0 {
		return t.slots[i].entry, true
	}
	return Entry{}, false
}

// TouchRepeat records n further hits on a resident translation in one
// step — the bulk page paths use it for the repeated same-page accesses
// of a zero or copy loop. It is observably identical to n sequential
// Lookup hits: tick advances by n, the hit counter by n, and the slot's
// LRU stamp lands on the final tick (the intermediate stamps of a real
// loop are each overwritten by the next, so only the last one is ever
// visible to replacement). Reports false (and does nothing) if the
// translation is not resident.
func (t *TLB) TouchRepeat(space arch.SpaceID, vpn arch.VPN, n uint64) bool {
	if n == 0 {
		return true
	}
	_, i := t.find(key{space, vpn})
	if i < 0 {
		return false
	}
	t.tick += n
	t.stats.Hits += n
	t.slots[i].lru = t.tick
	return true
}

// insert places k in the first invalid slot, else evicts the least
// recently used one (the first of equals in slot order). k must not be
// resident.
func (t *TLB) insert(k key, e Entry) {
	victim := 0
	for i := range t.slots {
		if !t.slots[i].valid {
			victim = i
			goto place
		}
		if t.slots[i].lru < t.slots[victim].lru {
			victim = i
		}
	}
	t.stats.Evictions++
	t.drop(victim)
place:
	t.slots[victim] = slot{key: k, entry: e, valid: true, lru: t.tick}
	c, _ := t.find(k)
	t.index[c] = int32(victim + 1)
}

// drop invalidates valid slot i and removes it from the index.
func (t *TLB) drop(i int) {
	c, _ := t.find(t.slots[i].key)
	t.unlink(c)
	t.slots[i].valid = false
}

// InvalidatePage drops any cached translation for (space, vpn). The pmap
// layer must call this whenever it changes that page's mapping,
// protection, or modify-trap state.
func (t *TLB) InvalidatePage(space arch.SpaceID, vpn arch.VPN) {
	if c, i := t.find(key{space, vpn}); i >= 0 {
		t.stats.Shootdowns++
		t.unlink(c)
		t.slots[i].valid = false
	}
}

// InvalidateSpace drops every cached translation belonging to one
// address space — the migration shootdown: when the kernel moves a
// process to another CPU, the CPU it left must retain no translations
// of the migrating space. Counted as a single shootdown like
// InvalidateAll (one IPI, however many entries it clears).
func (t *TLB) InvalidateSpace(space arch.SpaceID) {
	t.stats.Shootdowns++
	for i := range t.slots {
		if t.slots[i].valid && t.slots[i].key.space == space {
			t.drop(i)
		}
	}
}

// InvalidateAll flushes the whole TLB.
func (t *TLB) InvalidateAll() {
	t.stats.Shootdowns++
	for i := range t.slots {
		t.slots[i].valid = false
	}
	clear(t.index)
}
