package cache

import (
	"testing"

	"vcache/internal/arch"
	"vcache/internal/mem"
	"vcache/internal/sim"
)

func testRig(t *testing.T, cfg Config) (*Cache, *mem.Memory, *sim.Clock) {
	t.Helper()
	geom := arch.HP720()
	clock := sim.NewClock(sim.HP720Timing())
	m, err := mem.New(geom, 256)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Size == 0 {
		cfg.Size = geom.DCacheSize
	}
	if cfg.Ways == 0 {
		cfg.Ways = 1
	}
	c, err := New(cfg, m, clock)
	if err != nil {
		t.Fatal(err)
	}
	return c, m, clock
}

func TestReadMissThenHit(t *testing.T) {
	c, m, _ := testRig(t, Config{Name: "d"})
	m.WriteWord(0x100, 77)
	v, info := c.Read(0x100, 0x100)
	if v != 77 || info.Hit {
		t.Fatalf("first read: v=%d hit=%t", v, info.Hit)
	}
	v, info = c.Read(0x100, 0x100)
	if v != 77 || !info.Hit {
		t.Fatalf("second read: v=%d hit=%t", v, info.Hit)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats hits=%d misses=%d", s.Hits, s.Misses)
	}
}

func TestWriteBackDefersMemoryUpdate(t *testing.T) {
	c, m, _ := testRig(t, Config{Name: "d", Policy: WriteBack})
	c.Write(0x200, 0x200, 99)
	if m.ReadWord(0x200) != 0 {
		t.Error("write-back cache updated memory immediately")
	}
	if present, dirty := c.Present(0x200); !present || !dirty {
		t.Errorf("line present=%t dirty=%t", present, dirty)
	}
	if !c.FlushLine(0x200, 0x200) {
		t.Error("flush missed a present line")
	}
	if m.ReadWord(0x200) != 99 {
		t.Error("flush did not write the line back")
	}
	if present, _ := c.Present(0x200); present {
		t.Error("flush did not invalidate the line")
	}
}

func TestWriteThroughUpdatesMemory(t *testing.T) {
	c, m, _ := testRig(t, Config{Name: "d", Policy: WriteThrough})
	c.Write(0x300, 0x300, 5)
	if m.ReadWord(0x300) != 5 {
		t.Error("write-through cache left memory stale")
	}
	if _, dirty := c.Present(0x300); dirty {
		t.Error("write-through line marked dirty")
	}
}

func TestPurgeDropsDirtyData(t *testing.T) {
	c, m, _ := testRig(t, Config{Name: "d"})
	c.Write(0x400, 0x400, 123)
	if !c.PurgeLine(0x400, 0x400) {
		t.Error("purge missed the line")
	}
	if m.ReadWord(0x400) != 0 {
		t.Error("purge wrote data back")
	}
	v, _ := c.Read(0x400, 0x400)
	if v != 0 {
		t.Errorf("read after purge = %d, want memory value 0", v)
	}
}

// TestUnalignedAliasDuplicates shows the defining hazard: the same
// physical line cached twice under two virtual indexes, diverging.
func TestUnalignedAliasDuplicates(t *testing.T) {
	c, _, _ := testRig(t, Config{Name: "d"})
	geom := arch.HP720()
	pa := arch.PA(0x1000)
	va1 := geom.PageBase(0x10) // color 16
	va2 := geom.PageBase(0x11) // color 17
	c.Read(va1, pa)
	c.Read(va2, pa)
	if copies, _ := c.CopiesOf(pa); copies != 2 {
		t.Fatalf("copies = %d, want 2", copies)
	}
	// Writing through one leaves the other stale.
	c.Write(va1, pa, 0xAA)
	v, info := c.Read(va2, pa)
	if !info.Hit {
		t.Fatal("alias read should hit its own stale line")
	}
	if v == 0xAA {
		t.Fatal("hardware magically kept aliases consistent?")
	}
}

// TestAlignedAliasSharesLine shows why aligned aliases need no
// management in a physically tagged cache.
func TestAlignedAliasSharesLine(t *testing.T) {
	c, _, _ := testRig(t, Config{Name: "d"})
	geom := arch.HP720()
	pa := arch.PA(0x2000)
	va1 := geom.PageBase(0x10)
	va2 := geom.PageBase(0x10 + 64) // same color, different page
	c.Write(va1, pa, 7)
	v, info := c.Read(va2, pa)
	if !info.Hit || v != 7 {
		t.Fatalf("aligned alias: hit=%t v=%d, want hit with 7", info.Hit, v)
	}
	if copies, _ := c.CopiesOf(pa); copies != 1 {
		t.Errorf("aligned aliases made %d copies", copies)
	}
}

func TestEvictionWritesBackDirtyVictim(t *testing.T) {
	c, m, _ := testRig(t, Config{Name: "d"})
	geom := arch.HP720()
	// Two physical lines contending for the same set (VAs 256 KiB apart).
	va1 := arch.VA(0x0)
	va2 := arch.VA(geom.DCacheSize)
	c.Write(va1, 0x0, 11)
	_, info := c.Read(va2, 0x8000)
	if !info.WroteBack {
		t.Error("eviction of dirty victim did not report write-back")
	}
	if m.ReadWord(0x0) != 11 {
		t.Error("victim data lost on eviction")
	}
}

func TestPIPTIndexesByPhysical(t *testing.T) {
	c, _, _ := testRig(t, Config{Name: "d", Indexing: PhysicalIndex})
	geom := arch.HP720()
	pa := arch.PA(0x3000)
	va1 := geom.PageBase(0x20)
	va2 := geom.PageBase(0x21) // different virtual color
	c.Write(va1, pa, 9)
	v, info := c.Read(va2, pa)
	if !info.Hit || v != 9 {
		t.Fatal("physically indexed cache must resolve aliases in hardware")
	}
	if copies, _ := c.CopiesOf(pa); copies != 1 {
		t.Errorf("PIPT made %d copies of one line", copies)
	}
}

func TestSetAssociativeLRU(t *testing.T) {
	c, _, _ := testRig(t, Config{Name: "d", Ways: 2})
	geom := arch.HP720()
	// Three lines mapping to the same set in a 2-way cache.
	stride := geom.DCacheSize / 2 // set count halves with 2 ways
	va := func(i int) arch.VA { return arch.VA(uint64(i) * stride) }
	pa := func(i int) arch.PA { return arch.PA(0x10000 + uint64(i)*64) }
	c.Read(va(0), pa(0))
	c.Read(va(1), pa(1))
	c.Read(va(0), pa(0)) // refresh 0's recency
	c.Read(va(2), pa(2)) // evicts pa(1), the LRU
	if p, _ := c.Present(pa(0)); !p {
		t.Error("recently used way evicted")
	}
	if p, _ := c.Present(pa(1)); p {
		t.Error("LRU way survived")
	}
	if p, _ := c.Present(pa(2)); !p {
		t.Error("new line absent")
	}
}

// target is the frame the page flush and purge tests operate on.
const target = arch.PFN(10)

// pageLine is one access through cache page 0 (virtual page 0): a store
// (dirty) or a load (clean) of line l of frame f.
type pageLine struct {
	f     arch.PFN
	l     uint64
	write bool
}

func (ln pageLine) pa(geom arch.Geometry) arch.PA {
	return geom.FrameBase(ln.f) + arch.PA(ln.l*geom.LineSize)
}

// value is the word a pageLine store writes, unique per line.
func (ln pageLine) value() uint64 { return uint64(ln.f)<<16 | ln.l + 1 }

// mixedPage leaves target's cache page with 10 clean hits, 20 dirty
// hits, 10 sets held dirty by frame 11 and the rest empty.
func mixedPage() []pageLine {
	var lines []pageLine
	for l := uint64(0); l < 40; l++ {
		switch {
		case l < 10:
			lines = append(lines, pageLine{target, l, false})
		case l < 30:
			lines = append(lines, pageLine{target, l, true})
		default:
			lines = append(lines, pageLine{11, l, true})
		}
	}
	return lines
}

// fillPage performs lines in order and returns the present/dirty state
// it leaves each line of another frame in.
func fillPage(c *Cache, geom arch.Geometry, lines []pageLine) map[arch.PA][2]bool {
	for _, ln := range lines {
		va := arch.VA(ln.l * geom.LineSize)
		if ln.write {
			c.Write(va, ln.pa(geom), ln.value())
		} else {
			c.Read(va, ln.pa(geom))
		}
	}
	others := make(map[arch.PA][2]bool)
	for _, ln := range lines {
		if ln.f != target {
			p, d := c.Present(ln.pa(geom))
			others[ln.pa(geom)] = [2]bool{p, d}
		}
	}
	return others
}

// checkScoped verifies that a page operation on target left none of
// target's lines cached and every other frame's line as fillPage left it.
func checkScoped(t *testing.T, c *Cache, geom arch.Geometry, lines []pageLine, others map[arch.PA][2]bool) {
	t.Helper()
	for _, ln := range lines {
		if p, _ := c.Present(ln.pa(geom)); ln.f == target && p {
			t.Errorf("frame %d line %d still cached", target, ln.l)
		}
	}
	for pa, was := range others {
		if p, d := c.Present(pa); p != was[0] || d != was[1] {
			t.Errorf("another frame's line %#x changed: present/dirty %t/%t, was %t/%t", pa, p, d, was[0], was[1])
		}
	}
}

func TestFlushPageScopesToFrame(t *testing.T) {
	geom := arch.HP720()
	timing := sim.HP720Timing()
	for _, tc := range []struct {
		name        string
		lines       []pageLine
		hits, dirty uint64
	}{
		// Frame 11's store evicts (writes back) target's dirty line from
		// the direct-mapped set, so the flush finds nothing.
		{"evicted by another frame", []pageLine{{target, 0, true}, {11, 0, true}}, 0, 0},
		{"mixed clean, dirty, foreign and empty sets", mixedPage(), 30, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, m, clock := testRig(t, Config{Name: "d"})
			others := fillPage(c, geom, tc.lines)
			before, cycles := c.Stats(), clock.CyclesIn(sim.CatFlush)
			c.FlushPage(0, target)
			after := c.Stats()

			misses := geom.LinesPerPage() - tc.hits
			if got, want := clock.CyclesIn(sim.CatFlush)-cycles, tc.hits*timing.LineFlushHit+misses*timing.LineFlushMiss; got != want {
				t.Errorf("flush cost %d, want %d (%d hits, %d misses)", got, want, tc.hits, misses)
			}
			if got := after.WriteBacks - before.WriteBacks; got != tc.dirty {
				t.Errorf("write-backs %d, want %d", got, tc.dirty)
			}
			if got := after.PageFlushes - before.PageFlushes; got != 1 {
				t.Errorf("page flushes went up by %d, want 1", got)
			}
			checkScoped(t, c, geom, tc.lines, others)
			for _, ln := range tc.lines {
				if ln.f == target && ln.write && m.ReadWord(ln.pa(geom)) != ln.value() {
					t.Errorf("frame %d line %d not written back", target, ln.l)
				}
			}
		})
	}
}

func TestPurgePageCosts(t *testing.T) {
	geom := arch.HP720()
	timing := sim.HP720Timing()
	for _, tc := range []struct {
		name  string
		lines []pageLine
		hits  uint64
	}{
		{"empty page", nil, 0},
		{"mixed clean, dirty, foreign and empty sets", mixedPage(), 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, m, clock := testRig(t, Config{Name: "d"})
			others := fillPage(c, geom, tc.lines)
			before, cycles := c.Stats(), clock.CyclesIn(sim.CatPurge)
			c.PurgePage(0, target)
			after := c.Stats()

			misses := geom.LinesPerPage() - tc.hits
			if got, want := clock.CyclesIn(sim.CatPurge)-cycles, tc.hits*timing.LinePurgeHit+misses*timing.LinePurgeMiss; got != want {
				t.Errorf("purge cost %d, want %d (%d hits, %d misses)", got, want, tc.hits, misses)
			}
			if got := after.WriteBacks - before.WriteBacks; got != 0 {
				t.Errorf("purge wrote back %d lines", got)
			}
			if got := after.PagePurges - before.PagePurges; got != 1 {
				t.Errorf("page purges went up by %d, want 1", got)
			}
			checkScoped(t, c, geom, tc.lines, others)
			for _, ln := range tc.lines {
				if ln.f == target && m.ReadWord(ln.pa(geom)) != 0 {
					t.Errorf("frame %d line %d reached memory through a purge", target, ln.l)
				}
			}
		})
	}
}

func TestConstantPagePurge(t *testing.T) {
	c, _, clock := testRig(t, Config{Name: "i", ReadOnly: true, ConstantPagePurge: true, Size: arch.HP720().ICacheSize})
	geom := arch.HP720()
	c.Read(geom.PageBase(0), geom.FrameBase(5))
	before := clock.CyclesIn(sim.CatPurge)
	c.PurgePage(0, 5)
	if got := clock.CyclesIn(sim.CatPurge) - before; got != sim.HP720Timing().ICachePagePurge {
		t.Errorf("constant page purge cost %d, want %d", got, sim.HP720Timing().ICachePagePurge)
	}
	if p, _ := c.Present(geom.FrameBase(5)); p {
		t.Error("constant-time purge left the line valid")
	}
}

func TestReadOnlyCachePanicsOnWrite(t *testing.T) {
	c, _, _ := testRig(t, Config{Name: "i", ReadOnly: true})
	defer func() {
		if recover() == nil {
			t.Error("write to read-only cache should panic")
		}
	}()
	c.Write(0, 0, 1)
}

func TestPurgeAll(t *testing.T) {
	c, _, _ := testRig(t, Config{Name: "d"})
	c.Write(0, 0, 1)
	c.Write(4096, 4096, 2)
	c.PurgeAll()
	if p, _ := c.Present(0); p {
		t.Error("PurgeAll left data")
	}
	if c.DirtyInFrame(0) {
		t.Error("PurgeAll left dirty data")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	geom := arch.HP720()
	clock := sim.NewClock(sim.HP720Timing())
	m, _ := mem.New(geom, 4)
	if _, err := New(Config{Name: "x", Size: geom.DCacheSize, Ways: 0}, m, clock); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := New(Config{Name: "x", Size: 1000, Ways: 1}, m, clock); err == nil {
		t.Error("non-power-of-two size accepted")
	}
	if _, err := New(Config{Name: "x", Size: geom.DCacheSize, Ways: 3}, m, clock); err == nil {
		t.Error("ways not dividing line count accepted")
	}
}

// TestCacheMatchesMemoryModel is the hardware-level property test: under
// a single identity mapping (no aliases), any sequence of reads, writes,
// flushes, and purges must make reads return exactly what a flat memory
// would. Exercised for every cache flavor.
func TestCacheMatchesMemoryModel(t *testing.T) {
	flavors := []Config{
		{Name: "vipt-wb"},
		{Name: "vipt-wt", Policy: WriteThrough},
		{Name: "pipt-wb", Indexing: PhysicalIndex},
		{Name: "2way", Ways: 2},
		{Name: "4way", Ways: 4},
	}
	for _, cfg := range flavors {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			c, m, _ := testRig(t, cfg)
			geom := arch.HP720()
			model := make(map[arch.PA]uint64)
			rng := sim.NewRand(99)
			const span = 64 * 1024
			addr := func() arch.PA {
				return arch.PA(rng.Intn(span/8) * 8)
			}
			for i := 0; i < 50000; i++ {
				pa := addr()
				va := arch.VA(pa) // identity mapping: aligned by construction
				switch rng.Intn(10) {
				case 0:
					c.FlushLine(va, pa)
				case 1:
					// Purging a dirty line deliberately discards its
					// data; subsequent reads see memory. Resync the
					// model with memory for the purged line.
					c.PurgeLine(va, pa)
					base := pa &^ arch.PA(geom.LineSize-1)
					for w := uint64(0); w < geom.WordsPerLine(); w++ {
						wpa := base + arch.PA(w*arch.WordSize)
						model[wpa] = m.ReadWord(wpa)
					}
				case 2, 3, 4:
					v := rng.Uint64()
					model[pa] = v
					c.Write(va, pa, v)
				default:
					got, _ := c.Read(va, pa)
					if got != model[pa] {
						t.Fatalf("%s: read %#x = %d, model %d (op %d)", cfg.Name, uint64(pa), got, model[pa], i)
					}
				}
			}
		})
	}
}
