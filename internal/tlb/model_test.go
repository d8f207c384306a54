package tlb

import (
	"fmt"
	"math/rand"
	"testing"

	"vcache/internal/arch"
	"vcache/internal/sim"
)

// refTLB is the reference model the flat index must match: the same
// slots, found by linear search, with the same LRU victim rule.
type refTLB struct {
	slots []slot
	clock *sim.Clock
	tick  uint64
	stats Stats
}

func newRef(entries int, clock *sim.Clock) *refTLB {
	return &refTLB{slots: make([]slot, entries), clock: clock}
}

func (r *refTLB) clone(clock *sim.Clock) *refTLB {
	r2 := *r
	r2.clock = clock
	r2.slots = append([]slot(nil), r.slots...)
	return &r2
}

func (r *refTLB) search(k key) int {
	for i := range r.slots {
		if r.slots[i].valid && r.slots[i].key == k {
			return i
		}
	}
	return -1
}

func (r *refTLB) Lookup(space arch.SpaceID, vpn arch.VPN, w Walker) (Entry, bool) {
	r.tick++
	k := key{space, vpn}
	if i := r.search(k); i >= 0 {
		r.stats.Hits++
		r.slots[i].lru = r.tick
		return r.slots[i].entry, true
	}
	r.stats.Misses++
	r.clock.Charge(sim.CatAccess, r.clock.Timing().TLBMiss)
	e, ok := w.Walk(space, vpn)
	if !ok {
		return Entry{}, false
	}
	victim := -1
	for i := range r.slots {
		if !r.slots[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := range r.slots {
			if r.slots[i].lru < r.slots[victim].lru {
				victim = i
			}
		}
		r.stats.Evictions++
	}
	r.slots[victim] = slot{key: k, entry: e, valid: true, lru: r.tick}
	return e, true
}

func (r *refTLB) Peek(space arch.SpaceID, vpn arch.VPN) (Entry, bool) {
	if i := r.search(key{space, vpn}); i >= 0 {
		return r.slots[i].entry, true
	}
	return Entry{}, false
}

func (r *refTLB) TouchRepeat(space arch.SpaceID, vpn arch.VPN, n uint64) bool {
	if n == 0 {
		return true
	}
	i := r.search(key{space, vpn})
	if i < 0 {
		return false
	}
	r.tick += n
	r.stats.Hits += n
	r.slots[i].lru = r.tick
	return true
}

func (r *refTLB) InvalidatePage(space arch.SpaceID, vpn arch.VPN) {
	if i := r.search(key{space, vpn}); i >= 0 {
		r.stats.Shootdowns++
		r.slots[i].valid = false
	}
}

func (r *refTLB) InvalidateSpace(space arch.SpaceID) {
	r.stats.Shootdowns++
	for i := range r.slots {
		if r.slots[i].key.space == space {
			r.slots[i].valid = false
		}
	}
}

func (r *refTLB) InvalidateAll() {
	r.stats.Shootdowns++
	for i := range r.slots {
		r.slots[i].valid = false
	}
}

// pureWalker maps every page whose VPN is not 3 mod 7 to an entry
// derived from the key alone, so it neither allocates nor keeps state.
type pureWalker struct{}

func (pureWalker) Walk(space arch.SpaceID, vpn arch.VPN) (Entry, bool) {
	if vpn%7 == 3 {
		return Entry{}, false
	}
	return Entry{
		PFN:         arch.PFN(uint64(vpn)*5 + uint64(space)),
		Prot:        arch.ProtReadWrite,
		NeedModTrap: vpn%2 == 0,
		Uncached:    space == 2 && vpn%3 == 0,
	}, true
}

// collidingKeys returns keys whose home cells in t's index crowd into a
// few neighboring cells, including the last cell so probe runs wrap,
// pairs of keys with equal VPNs in different spaces, and an unmapped
// page.
func collidingKeys(t *TLB, want int) []key {
	last := len(t.index) - 1
	keys := []key{{1, 3}}
	for vpn := arch.VPN(0); len(keys) < want; vpn++ {
		for space := arch.SpaceID(1); space <= 3; space++ {
			k := key{space, vpn}
			if h := t.home(k); h == 0 || h == 1 || h == last {
				keys = append(keys, k)
			}
		}
		if vpn%97 == 0 {
			keys = append(keys, key{1, vpn}, key{2, vpn})
		}
	}
	return keys
}

// checkIndex verifies the index holds exactly the valid slots, each
// reachable from its home cell.
func checkIndex(t *testing.T, tl *TLB) {
	t.Helper()
	used := 0
	for _, c := range tl.index {
		if c != 0 {
			used++
		}
	}
	valid := 0
	for i, s := range tl.slots {
		if !s.valid {
			continue
		}
		valid++
		if _, got := tl.find(s.key); got != i {
			t.Fatalf("slot %d (%v) found at %d", i, s.key, got)
		}
	}
	if used != valid {
		t.Fatalf("index holds %d cells for %d valid slots", used, valid)
	}
}

// TestMatchesReferenceModel drives the TLB and the linear-search model
// with the same seeded op mix over index-colliding keys and requires the
// same answers, counters and cycles after every op, across Clones.
func TestMatchesReferenceModel(t *testing.T) {
	for _, entries := range []int{1, 2, 8, 96} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("entries=%d/seed=%d", entries, seed), func(t *testing.T) {
				runModel(t, entries, seed)
			})
		}
	}
}

type pair struct {
	tl       *TLB
	ref      *refTLB
	clk, rcl *sim.Clock
}

func runModel(t *testing.T, entries int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	clk, rcl := sim.NewClock(sim.HP720Timing()), sim.NewClock(sim.HP720Timing())
	pairs := []pair{{New(entries, clk), newRef(entries, rcl), clk, rcl}}
	keys := collidingKeys(pairs[0].tl, 3*entries+6)
	var w pureWalker
	for op := 0; op < 4000; op++ {
		p := &pairs[rng.Intn(len(pairs))]
		k := keys[rng.Intn(len(keys))]
		var what string
		switch r := rng.Intn(100); {
		case r < 55:
			what = "Lookup"
			e, ok := p.tl.Lookup(k.space, k.vpn, w)
			re, rok := p.ref.Lookup(k.space, k.vpn, w)
			if e != re || ok != rok {
				t.Fatalf("op %d Lookup%v = %+v,%t; model %+v,%t", op, k, e, ok, re, rok)
			}
		case r < 65:
			what = "Peek"
			e, ok := p.tl.Peek(k.space, k.vpn)
			re, rok := p.ref.Peek(k.space, k.vpn)
			if e != re || ok != rok {
				t.Fatalf("op %d Peek%v = %+v,%t; model %+v,%t", op, k, e, ok, re, rok)
			}
		case r < 75:
			what = "TouchRepeat"
			n := uint64(rng.Intn(4))
			if ok, rok := p.tl.TouchRepeat(k.space, k.vpn, n), p.ref.TouchRepeat(k.space, k.vpn, n); ok != rok {
				t.Fatalf("op %d TouchRepeat%v(%d) = %t; model %t", op, k, n, ok, rok)
			}
		case r < 92:
			what = "InvalidatePage"
			p.tl.InvalidatePage(k.space, k.vpn)
			p.ref.InvalidatePage(k.space, k.vpn)
		case r < 95:
			what = "InvalidateSpace"
			p.tl.InvalidateSpace(k.space)
			p.ref.InvalidateSpace(k.space)
		case r < 97:
			what = "InvalidateAll"
			p.tl.InvalidateAll()
			p.ref.InvalidateAll()
		default:
			what = "Clone"
			if len(pairs) < 4 {
				c2, r2 := p.clk.Clone(), p.rcl.Clone()
				pairs = append(pairs, pair{p.tl.Clone(c2), p.ref.clone(r2), c2, r2})
			}
		}
		for i := range pairs {
			q := &pairs[i]
			if s, rs := q.tl.Stats(), q.ref.stats; s != rs {
				t.Fatalf("op %d (%s) copy %d: stats %+v; model %+v", op, what, i, s, rs)
			}
			if c, rc := q.clk.Cycles(), q.rcl.Cycles(); c != rc {
				t.Fatalf("op %d (%s) copy %d: cycles %d; model %d", op, what, i, c, rc)
			}
			checkIndex(t, q.tl)
		}
	}
	if len(pairs) < 2 {
		t.Fatalf("seed %d never cloned", seed)
	}
}

func TestFlatIndexAllocatesNothing(t *testing.T) {
	clk := sim.NewClock(sim.HP720Timing())
	tl := New(8, clk)
	var w pureWalker
	tl.Lookup(1, 1, w)
	if n := testing.AllocsPerRun(100, func() { tl.Lookup(1, 1, w) }); n != 0 {
		t.Errorf("Lookup hit: %v allocs/op", n)
	}
	vpn := arch.VPN(0)
	if n := testing.AllocsPerRun(100, func() {
		vpn++
		if vpn%7 == 3 {
			vpn++
		}
		tl.Lookup(1, vpn, w)
	}); n != 0 {
		t.Errorf("Lookup miss with eviction: %v allocs/op", n)
	}
	if tl.Stats().Evictions == 0 {
		t.Fatal("miss loop never evicted")
	}
	if n := testing.AllocsPerRun(100, func() {
		tl.Lookup(2, 5, w)
		tl.InvalidatePage(2, 5)
	}); n != 0 {
		t.Errorf("InvalidatePage: %v allocs/op", n)
	}
}

// BenchmarkLookup times TLB hits: "sequential" walks pages word by word
// (512 accesses per page over 64 pages), "alternating" switches between
// two pages of two spaces on every access, the pattern of a kernel
// copying a file buffer into a user heap.
func BenchmarkLookup(b *testing.B) {
	var w pureWalker
	b.Run("sequential", func(b *testing.B) {
		tl := New(96, sim.NewClock(sim.HP720Timing()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vpn := arch.VPN(i/512%64) * 7 // never 3 mod 7: always mapped
			tl.Lookup(1, vpn, w)
		}
	})
	b.Run("alternating", func(b *testing.B) {
		tl := New(96, sim.NewClock(sim.HP720Timing()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i&1 == 0 {
				tl.Lookup(0, 0x40, w)
			} else {
				tl.Lookup(1, 0x1000, w)
			}
		}
	})
}
