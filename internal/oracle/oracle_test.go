package oracle

import (
	"reflect"
	"testing"

	"vcache/internal/arch"
)

func TestObserveFreshAndStale(t *testing.T) {
	o := New(64)
	o.RecordWrite(8, 42)
	o.Observe(CPURead, 8, 42)
	if len(o.Violations()) != 0 {
		t.Fatal("fresh read flagged")
	}
	o.Observe(CPURead, 8, 41)
	v := o.Violations()
	if len(v) != 1 {
		t.Fatalf("stale read produced %d violations", len(v))
	}
	if v[0].Got != 41 || v[0].Want != 42 || v[0].Consumer != CPURead {
		t.Errorf("violation = %+v", v[0])
	}
	if o.Checks() != 2 {
		t.Errorf("Checks = %d", o.Checks())
	}
}

func TestConsumersTracked(t *testing.T) {
	o := New(64)
	o.RecordWrite(0, 1)
	o.Observe(CPUFetch, 0, 0)
	o.Observe(DeviceRead, 0, 0)
	v := o.Violations()
	if len(v) != 2 || v[0].Consumer != CPUFetch || v[1].Consumer != DeviceRead {
		t.Fatalf("violations = %v", v)
	}
	// Strings are informative.
	if v[0].String() == "" || CPUFetch.String() != "cpu-fetch" {
		t.Error("bad formatting")
	}
}

func TestLatestWriteWins(t *testing.T) {
	o := New(64)
	o.RecordWrite(16, 1)
	o.RecordWrite(16, 2) // e.g. a DMA overwrote a CPU write
	o.Observe(CPURead, 16, 1)
	if len(o.Violations()) != 1 {
		t.Error("old value accepted after newer write")
	}
	o.Observe(CPURead, 16, 2)
	if len(o.Violations()) != 1 {
		t.Error("current value rejected")
	}
	if o.Expected(16) != 2 {
		t.Errorf("Expected = %d", o.Expected(16))
	}
}

func TestFailFast(t *testing.T) {
	o := New(8)
	var got *Violation
	o.FailFast = func(v Violation) { got = &v }
	o.RecordWrite(0, 5)
	o.Observe(CPURead, 0, 6)
	if got == nil || got.Want != 5 {
		t.Error("FailFast not invoked")
	}
}

func TestNilOracleIsSafe(t *testing.T) {
	var o *Oracle
	o.RecordWrite(0, 1)
	o.Observe(CPURead, 0, 2)
	o.RecordWords(0, []uint64{1})
	o.RecordZeros(0, 4)
	o.ObserveWords(CPURead, 0, []uint64{2})
	if o.Violations() != nil || o.Checks() != 0 || o.Expected(0) != 0 {
		t.Error("nil oracle misbehaved")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	o := New(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	o.RecordWrite(arch.PA(64), 1)
}

// TestRangeMethodsMatchPerWordCalls: RecordWords, RecordZeros and
// ObserveWords leave the same shadow, checks, violations and FailFast
// calls as the per-word loops they replace.
func TestRangeMethodsMatchPerWordCalls(t *testing.T) {
	const words = 32
	build := func() (*Oracle, *[]Violation) {
		o := New(words)
		var failed []Violation
		o.FailFast = func(v Violation) { failed = append(failed, v) }
		for i := 0; i < words; i++ {
			o.RecordWrite(arch.PA(i*arch.WordSize), uint64(100+i))
		}
		return o, &failed
	}
	vals := []uint64{7, 8, 9, 10, 11}
	// Delivered words 4..9: words 5 and 8 are stale.
	got := []uint64{7, 105, 9, 10, 108, 109}
	const base = arch.PA(4 * arch.WordSize)

	word, wfail := build()
	for i, v := range vals {
		word.RecordWrite(base+arch.PA(i*arch.WordSize), v)
	}
	for i := 0; i < 3; i++ {
		word.RecordWrite(arch.PA((20+i)*arch.WordSize), 0)
	}
	for i, g := range got {
		word.Observe(DeviceRead, base+arch.PA(i*arch.WordSize), g)
	}

	rng, rfail := build()
	rng.RecordWords(base, vals)
	rng.RecordZeros(arch.PA(20*arch.WordSize), 3)
	rng.ObserveWords(DeviceRead, base, got)

	if !reflect.DeepEqual(word.shadow, rng.shadow) {
		t.Errorf("shadow: per-word %v, range %v", word.shadow, rng.shadow)
	}
	if word.Checks() != rng.Checks() || rng.Checks() != uint64(len(got)) {
		t.Errorf("checks: per-word %d, range %d", word.Checks(), rng.Checks())
	}
	if len(word.Violations()) != 2 || !reflect.DeepEqual(word.Violations(), rng.Violations()) {
		t.Errorf("violations: per-word %v, range %v", word.Violations(), rng.Violations())
	}
	if !reflect.DeepEqual(*wfail, *rfail) || !reflect.DeepEqual(*rfail, rng.Violations()) {
		t.Errorf("FailFast calls: per-word %v, range %v", *wfail, *rfail)
	}

	// Empty ranges are no-ops, even at an out-of-range address.
	rng.RecordWords(arch.PA(1<<40), nil)
	rng.RecordZeros(arch.PA(1<<40), 0)
	rng.ObserveWords(CPURead, arch.PA(1<<40), nil)
	if rng.Checks() != uint64(len(got)) {
		t.Error("empty ObserveWords counted checks")
	}
}

// TestRangeOutOfRangePanics: a range that starts or ends past the
// shadow panics before touching any word.
func TestRangeOutOfRangePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(o *Oracle)
	}{
		{"RecordWords/last", func(o *Oracle) { o.RecordWords(arch.PA(2*arch.WordSize), []uint64{1, 2, 3}) }},
		{"RecordWords/first", func(o *Oracle) { o.RecordWords(arch.PA(4*arch.WordSize), []uint64{1}) }},
		{"RecordZeros/last", func(o *Oracle) { o.RecordZeros(arch.PA(1*arch.WordSize), 4) }},
		{"ObserveWords/last", func(o *Oracle) { o.ObserveWords(CPURead, arch.PA(3*arch.WordSize), []uint64{0, 0}) }},
		{"ObserveWords/first", func(o *Oracle) { o.ObserveWords(CPURead, arch.PA(9*arch.WordSize), []uint64{0}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := New(4)
			for i := 0; i < 4; i++ {
				o.RecordWrite(arch.PA(i*arch.WordSize), 5)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("expected panic")
					}
				}()
				tc.run(o)
			}()
			if o.Checks() != 0 || !reflect.DeepEqual(o.shadow, []uint64{5, 5, 5, 5}) {
				t.Errorf("out-of-range call had effects: checks %d, shadow %v", o.Checks(), o.shadow)
			}
		})
	}
}
