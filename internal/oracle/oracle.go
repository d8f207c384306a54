// Package oracle implements the staleness checker that validates the
// consistency model end to end.
//
// The oracle keeps a shadow copy of physical memory holding, for every
// word, the value of the most recent write in program order — whether the
// write came from the CPU (through the cache) or from a DMA device
// (directly to memory). Whenever the memory system delivers a value to a
// consumer — a CPU load, an instruction fetch, or a DMA device read — the
// oracle compares the delivered value against the shadow. Any mismatch is
// exactly the event the paper's model is designed to make impossible:
// "the memory system never transfers a stale value to either devices or
// the CPU" (Section 3.2).
//
// Intermediate inconsistencies (memory stale with respect to a dirty
// cache line, stale lines sitting in the cache, even a partially
// overwritten stale line being written back during a will_overwrite
// preparation) are all legal as long as no consumer observes them, so the
// oracle deliberately checks only the observable transfers.
package oracle

import (
	"fmt"

	"vcache/internal/arch"
)

// Consumer identifies who observed a transfer.
type Consumer uint8

const (
	// CPURead is a data load.
	CPURead Consumer = iota
	// CPUFetch is an instruction fetch.
	CPUFetch
	// DeviceRead is a DMA device reading memory.
	DeviceRead
)

func (c Consumer) String() string {
	switch c {
	case CPURead:
		return "cpu-read"
	case CPUFetch:
		return "cpu-fetch"
	default:
		return "device-read"
	}
}

// Violation records one observed stale transfer.
type Violation struct {
	Consumer Consumer
	PA       arch.PA
	Got      uint64
	Want     uint64
}

func (v Violation) String() string {
	return fmt.Sprintf("stale %s at PA %#x: got %#x, want %#x",
		v.Consumer, uint64(v.PA), v.Got, v.Want)
}

// Oracle is the staleness checker. A nil *Oracle is valid and disables
// all checking (machine.Config.WithOracle = false); every user-facing
// tool runs with the oracle on.
type Oracle struct {
	shadow     []uint64
	violations []Violation
	checks     uint64
	// FailFast, when set, is invoked on the first violation (tests use
	// it to stop immediately with context).
	FailFast func(Violation)
}

// New returns an oracle shadowing a memory of the given word count.
func New(words int) *Oracle {
	return &Oracle{shadow: make([]uint64, words)}
}

func (o *Oracle) idx(pa arch.PA) uint64 {
	i := uint64(pa) / arch.WordSize
	if i >= uint64(len(o.shadow)) {
		panic(fmt.Sprintf("oracle: PA %#x out of range", uint64(pa)))
	}
	return i
}

// RecordWrite notes that a write of v to pa became the logically current
// value (CPU store or DMA device write).
func (o *Oracle) RecordWrite(pa arch.PA, v uint64) {
	if o == nil {
		return
	}
	o.shadow[o.idx(pa)] = v
}

// Observe checks a value delivered by the memory system to a consumer.
func (o *Oracle) Observe(c Consumer, pa arch.PA, got uint64) {
	if o == nil {
		return
	}
	o.checks++
	want := o.shadow[o.idx(pa)]
	if got != want {
		v := Violation{Consumer: c, PA: pa, Got: got, Want: want}
		o.violations = append(o.violations, v)
		if o.FailFast != nil {
			o.FailFast(v)
		}
	}
}

// span bounds-checks the words [pa, pa+n) the way idx checks one word —
// by checking the first and the last — and returns the shadow slice
// covering them. n must be positive.
func (o *Oracle) span(pa arch.PA, n int) []uint64 {
	i := o.idx(pa)
	o.idx(pa + arch.PA((n-1)*arch.WordSize))
	return o.shadow[i : i+uint64(n)]
}

// RecordWords is RecordWrite for consecutive words: vals[i] becomes the
// current value at pa+i*WordSize (a bulk copy's destination tail or a
// DMA device write).
func (o *Oracle) RecordWords(pa arch.PA, vals []uint64) {
	if o == nil || len(vals) == 0 {
		return
	}
	copy(o.span(pa, len(vals)), vals)
}

// RecordZeros is RecordWrite(pa+i*WordSize, 0) for n consecutive words
// (a bulk zero-fill's tail).
func (o *Oracle) RecordZeros(pa arch.PA, n int) {
	if o == nil || n <= 0 {
		return
	}
	clear(o.span(pa, n))
}

// ObserveWords is Observe for consecutive words: got[i] was delivered
// to c from pa+i*WordSize. It counts len(got) checks and appends any
// violations in address order, invoking FailFast on each exactly as
// the per-word calls would.
func (o *Oracle) ObserveWords(c Consumer, pa arch.PA, got []uint64) {
	if o == nil || len(got) == 0 {
		return
	}
	want := o.span(pa, len(got))
	o.checks += uint64(len(got))
	for i, g := range got {
		if g != want[i] {
			v := Violation{Consumer: c, PA: pa + arch.PA(i*arch.WordSize), Got: g, Want: want[i]}
			o.violations = append(o.violations, v)
			if o.FailFast != nil {
				o.FailFast(v)
			}
		}
	}
}

// Clone returns an independent copy of the oracle (snapshot/fork
// support). A nil oracle clones to nil. FailFast is deliberately not
// carried over: it is a test hook bound to the run that installed it,
// not part of the machine image.
func (o *Oracle) Clone() *Oracle {
	if o == nil {
		return nil
	}
	return &Oracle{
		shadow:     append([]uint64(nil), o.shadow...),
		violations: append([]Violation(nil), o.violations...),
		checks:     o.checks,
	}
}

// Checks returns how many transfers were checked.
func (o *Oracle) Checks() uint64 {
	if o == nil {
		return 0
	}
	return o.checks
}

// Violations returns every stale transfer observed so far.
func (o *Oracle) Violations() []Violation {
	if o == nil {
		return nil
	}
	return o.violations
}

// Expected returns the shadow (logically current) value at pa, for tests
// that want to assert on it directly.
func (o *Oracle) Expected(pa arch.PA) uint64 {
	if o == nil {
		return 0
	}
	return o.shadow[o.idx(pa)]
}
