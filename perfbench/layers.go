package main

import (
	"fmt"
	"time"

	"vcache/internal/arch"
	"vcache/internal/cache"
	"vcache/internal/fs"
	"vcache/internal/kernel"
	"vcache/internal/machine"
	"vcache/internal/mem"
	"vcache/internal/oracle"
	"vcache/internal/pmap"
	"vcache/internal/policy"
	"vcache/internal/sim"
	"vcache/internal/tlb"
)

// Isolated layer drivers: each calls one layer's public functions on a
// seeded address stream and reports host ns, heap bytes and heap
// allocations per call. They measure the same layers as the traced
// pass, with far less noise than a whole simulation.

// layerCost is the per-operation cost of one driver.
type layerCost struct {
	ns, bytes, allocs float64
}

// layerReps is how many timed repetitions each driver makes; ns/op is
// their median.
const layerReps = 5

// sink keeps the compiler from discarding measured calls.
var sink uint64

// driver prepares one layer's state and returns a repetition, which runs
// the measured calls inside timed, does any preparation outside it, and
// returns the number of calls it made.
type driver struct {
	name string
	make func(seed uint64) (repetition, error)
}

type repetition = func(timed func(func())) (int, error)

var drivers = []driver{
	{"tlb.lookup", tlbLookup},
	{"cache.read", cacheAccess(false)},
	{"cache.write", cacheAccess(true)},
	{"cache.flush_page", cachePageOp(false)},
	{"cache.purge_page", cachePageOp(true)},
	{"machine.read", machineAccess(false)},
	{"machine.write", machineAccess(true)},
	{"mem.read_line", memReadLine},
	{"oracle.observe", oracleObserve},
	{"pmap.access", pmapAccess},
	{"fs.read_word", fsReadWord},
}

// runDrivers measures every driver.
func runDrivers(seed uint64) (map[string]layerCost, error) {
	out := make(map[string]layerCost)
	for _, d := range drivers {
		rep, err := d.make(seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		var elapsed time.Duration
		var total hostCounters
		timed := func(fn func()) {
			before := readHost()
			start := time.Now()
			fn()
			elapsed += time.Since(start)
			total = total.add(readHost().sub(before))
		}
		if _, err := rep(func(fn func()) { fn() }); err != nil { // warm-up, untimed
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		var nsPerOp []float64
		ops := 0
		for r := 0; r < layerReps; r++ {
			elapsed = 0
			n, err := rep(timed)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", d.name, err)
			}
			ops += n
			nsPerOp = append(nsPerOp, float64(elapsed)/float64(n))
		}
		out[d.name] = layerCost{
			ns:     median(nsPerOp),
			bytes:  float64(total.allocBytes) / float64(ops),
			allocs: float64(total.allocObjs) / float64(ops),
		}
	}
	return out, nil
}

// mapAll is a page-table walker that maps every page of a space
// read-write onto a frame chosen by the page number.
type mapAll struct{ frames uint64 }

func (w *mapAll) Walk(space arch.SpaceID, vpn arch.VPN) (tlb.Entry, bool) {
	return tlb.Entry{PFN: arch.PFN(uint64(vpn) % w.frames), Prot: arch.ProtReadWrite}, true
}

// pageStream draws n page numbers: all but coldPct percent from a hot
// set of hot pages, the rest from a cold set of cold pages above it.
func pageStream(r *rng, n, hot, cold, coldPct int) []arch.VPN {
	s := make([]arch.VPN, n)
	for i := range s {
		if r.intn(100) >= coldPct {
			s[i] = arch.VPN(r.intn(hot))
		} else {
			s[i] = arch.VPN(hot + r.intn(cold))
		}
	}
	return s
}

func tlbLookup(seed uint64) (repetition, error) {
	r := newRand(seed)
	t := tlb.New(96, sim.NewClock(sim.HP720Timing()))
	var w tlb.Walker = &mapAll{frames: 4096}
	// Two spaces of 32 hot pages fit the 96 entries; one access in a
	// hundred goes to a cold page and misses.
	vpns := pageStream(r, 200_000, 32, 2048, 1)
	spaces := make([]arch.SpaceID, len(vpns))
	for i := range spaces {
		spaces[i] = arch.SpaceID(1 + r.intn(2))
	}
	return func(timed func(func())) (int, error) {
		timed(func() {
			for i, v := range vpns {
				e, _ := t.Lookup(spaces[i], v, w)
				sink += uint64(e.PFN)
			}
		})
		return len(vpns), nil
	}, nil
}

// newCache builds the 720's data cache over a fresh memory.
func newCache() (*cache.Cache, *mem.Memory, arch.Geometry, error) {
	geom := arch.HP720()
	m, err := mem.New(geom, 4096)
	if err != nil {
		return nil, nil, geom, err
	}
	c, err := cache.New(cache.Config{
		Name: "dcache", Size: geom.DCacheSize, Indexing: cache.VirtualIndex,
		Policy: cache.WriteBack, Ways: 1,
	}, m, sim.NewClock(sim.HP720Timing()))
	return c, m, geom, err
}

// vaOf is the virtual address the drivers use for a physical address:
// a fixed offset that keeps the cache color of the frame.
func vaOf(pa arch.PA) arch.VA { return arch.VA(pa) + 1<<24 }

func cacheAccess(write bool) func(uint64) (repetition, error) {
	return func(seed uint64) (repetition, error) {
		c, _, geom, err := newCache()
		if err != nil {
			return nil, err
		}
		r := newRand(seed)
		frames := pageStream(r, 200_000, 48, 464, 10)
		pas := make([]arch.PA, len(frames))
		for i, f := range frames {
			pas[i] = geom.FrameBase(arch.PFN(f)) + arch.PA(r.intn(int(geom.WordsPerPage()))*arch.WordSize)
		}
		return func(timed func(func())) (int, error) {
			timed(func() {
				for i, pa := range pas {
					if write {
						c.Write(vaOf(pa), pa, uint64(i))
					} else {
						v, _ := c.Read(vaOf(pa), pa)
						sink += v
					}
				}
			})
			return len(pas), nil
		}, nil
	}
}

// cachePageOp flushes (or purges) every cache page in turn, after an
// untimed pass that dirties half the lines of each.
func cachePageOp(purge bool) func(uint64) (repetition, error) {
	return func(seed uint64) (repetition, error) {
		c, _, geom, err := newCache()
		if err != nil {
			return nil, err
		}
		r := newRand(seed)
		pages := int(c.CachePages())
		const rounds = 60
		frames := make([]arch.PFN, rounds*pages)
		for i := range frames {
			// Frame i%pages+k*pages keeps each round's pages on distinct
			// cache pages.
			frames[i] = arch.PFN(i%pages + pages*r.intn(8))
		}
		lines := geom.LinesPerPage()
		return func(timed func(func())) (int, error) {
			for k := 0; k < rounds; k++ {
				round := frames[k*pages : (k+1)*pages]
				for _, f := range round {
					base := geom.FrameBase(f)
					for l := uint64(0); l < lines; l += 2 {
						pa := base + arch.PA(l*geom.LineSize)
						c.Write(vaOf(pa), pa, uint64(l))
					}
				}
				timed(func() {
					for _, f := range round {
						cp := geom.DCachePageOf(vaOf(geom.FrameBase(f)))
						if purge {
							c.PurgePage(cp, f)
						} else {
							c.FlushPage(cp, f)
						}
					}
				})
			}
			return len(frames), nil
		}, nil
	}
}

func machineAccess(write bool) func(uint64) (repetition, error) {
	return func(seed uint64) (repetition, error) {
		cfg := machine.DefaultConfig() // oracle on, as every tool runs
		m, err := machine.New(cfg)
		if err != nil {
			return nil, err
		}
		m.SetWalker(&mapAll{frames: uint64(cfg.Frames)})
		r := newRand(seed)
		vpns := pageStream(r, 200_000, 32, 96, 10)
		vas := make([]arch.VA, len(vpns))
		for i, v := range vpns {
			vas[i] = m.Geom.PageBase(v) + arch.VA(r.intn(int(m.Geom.WordsPerPage()))*arch.WordSize)
		}
		var failed error
		return func(timed func(func())) (int, error) {
			timed(func() {
				for i, va := range vas {
					if write {
						if err := m.Write(1, va, uint64(i)); err != nil {
							failed = err
						}
					} else {
						v, err := m.Read(1, va)
						if err != nil {
							failed = err
						}
						sink += v
					}
				}
			})
			if failed != nil {
				return 0, failed
			}
			return len(vas), nil
		}, nil
	}
}

func memReadLine(seed uint64) (repetition, error) {
	geom := arch.HP720()
	m, err := mem.New(geom, 4096)
	if err != nil {
		return nil, err
	}
	r := newRand(seed)
	nlines := 4096 * int(geom.LinesPerPage())
	pas := make([]arch.PA, 200_000)
	for i := range pas {
		pas[i] = arch.PA(uint64(r.intn(nlines)) * geom.LineSize)
	}
	dst := make([]uint64, geom.WordsPerLine())
	return func(timed func(func())) (int, error) {
		timed(func() {
			for _, pa := range pas {
				m.ReadLine(pa, dst)
				sink += dst[0]
			}
		})
		return len(pas), nil
	}, nil
}

func oracleObserve(seed uint64) (repetition, error) {
	const words = 4096 * 512
	o := oracle.New(words)
	r := newRand(seed)
	pas := make([]arch.PA, 200_000)
	vals := make([]uint64, len(pas))
	for i := range pas {
		pas[i] = arch.PA(uint64(r.intn(words)) * arch.WordSize)
		o.RecordWrite(pas[i], uint64(i))
	}
	for i, pa := range pas {
		vals[i] = o.Expected(pa)
	}
	return func(timed func(func())) (int, error) {
		timed(func() {
			for i, pa := range pas {
				o.Observe(oracle.CPURead, pa, vals[i])
			}
		})
		if n := len(o.Violations()); n != 0 {
			return 0, fmt.Errorf("%d oracle violations", n)
		}
		return len(pas), nil
	}, nil
}

// pmapAccess runs CacheControl transitions: 32 frames each mapped at
// two unaligned virtual pages in two spaces, accessed in a seeded
// read/write order so most accesses change the page's state.
func pmapAccess(seed uint64) (repetition, error) {
	cfg := machine.DefaultConfig()
	cfg.Frames = 256
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	al, err := mem.NewAllocator(cfg.Geometry, cfg.Frames, 8, mem.SingleList)
	if err != nil {
		return nil, err
	}
	p := pmap.New(m, al, policy.ConfigF().Features)
	const pages = 32
	for i := 0; i < pages; i++ {
		f, err := p.AllocFrame(0)
		if err != nil {
			return nil, err
		}
		p.Enter(1, arch.VPN(0x100+i), f, arch.ProtReadWrite, pmap.KindUser)
		p.Enter(2, arch.VPN(0x201+i), f, arch.ProtReadWrite, pmap.KindUser)
	}
	type access struct {
		space arch.SpaceID
		vpn   arch.VPN
		acc   machine.Access
	}
	r := newRand(seed)
	stream := make([]access, 50_000)
	for i := range stream {
		pg := r.intn(pages)
		a := access{space: 1, vpn: arch.VPN(0x100 + pg), acc: machine.AccessRead}
		if r.intn(2) == 0 {
			a.space, a.vpn = 2, arch.VPN(0x201+pg)
		}
		if r.intn(2) == 0 {
			a.acc = machine.AccessWrite
		}
		stream[i] = a
	}
	var failed error
	return func(timed func(func())) (int, error) {
		timed(func() {
			for _, a := range stream {
				if err := p.Access(a.space, a.vpn, a.acc, false); err != nil {
					failed = err
				}
			}
		})
		if failed != nil {
			return 0, failed
		}
		return len(stream), nil
	}, nil
}

// fsReadWord reads words of a resident 16-page file through the buffer
// cache's kernel mappings.
func fsReadWord(seed uint64) (repetition, error) {
	k, err := kernel.New(kernel.DefaultConfig(policy.ConfigF()))
	if err != nil {
		return nil, err
	}
	f, err := k.FS.Create("bench/data")
	if err != nil {
		return nil, err
	}
	const pages = 16
	if err := k.WriteFileContent(f, pages); err != nil {
		return nil, err
	}
	if err := k.Sync(); err != nil {
		return nil, err
	}
	bufs := make([]*fs.Buffer, pages)
	for pg := range bufs {
		b, err := k.FS.GetBuffer(f, uint64(pg), false)
		if err != nil {
			return nil, err
		}
		bufs[pg] = b
	}
	r := newRand(seed)
	words := k.Geometry().WordsPerPage()
	type read struct {
		b    *fs.Buffer
		word uint64
	}
	stream := make([]read, 100_000)
	for i := range stream {
		stream[i] = read{bufs[r.intn(pages)], uint64(r.intn(int(words)))}
	}
	var failed error
	return func(timed func(func())) (int, error) {
		timed(func() {
			for _, rd := range stream {
				v, err := k.FS.ReadWord(rd.b, rd.word)
				if err != nil {
					failed = err
				}
				sink += v
			}
		})
		if failed != nil {
			return 0, failed
		}
		return len(stream), nil
	}, nil
}
