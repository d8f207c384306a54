// Identity proof for the simulator's hot-path optimizations: a run with
// the bulk zero/copy/DMA paths and the micro-TLB probe engaged must
// produce a Result identical — field for field, including every cycle,
// every counter and the oracle's check count — to the same run forced
// through the word-at-a-time reference pipeline. The fast paths run
// whether or not the oracle or a tracer is attached, so the proof is
// made in each of those configurations. Together with the golden sweep
// tests (which pin the oracle-on output), this is the "byte-identical
// before/after" acceptance bar for the fast paths.
package vcache

import (
	"reflect"
	"testing"

	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/policy"
	"vcache/internal/trace"
	"vcache/internal/workload"
)

// fastpathSpecs covers the paths the bulk code touches: the eager
// configuration A (release-time flushes around every prepare), the full
// lazy configuration F (WillOverwrite leaves stale lines for the bulk
// writes to hit), the Tut/Sun system variants (Sun exercises the
// uncached fallback), the RLT peer backend, and the paging/IPC torture
// workload.
func fastpathSpecs() []harness.Spec {
	scale := workload.Small()
	var specs []harness.Spec
	for _, label := range []string{"A", "D", "F", "Tut", "Sun", "RLT"} {
		cfg, err := policy.ByLabel(label)
		if err != nil {
			panic(err)
		}
		specs = append(specs,
			harness.Spec{Workload: workload.KernelBuild(), Config: cfg, Scale: scale},
			harness.Spec{Workload: workload.Stress(7, 300), Config: cfg, Scale: scale},
		)
	}
	return specs
}

// runWith executes one spec with the oracle on or off and the fast paths
// enabled or disabled.
func runWith(t *testing.T, s harness.Spec, oracle, fast bool) harness.Result {
	t.Helper()
	r, _ := runTraced(t, s, oracle, fast)
	return r
}

// runTraced is runWith that also returns the recorder of a spec with
// TraceN set.
func runTraced(t *testing.T, s harness.Spec, oracle, fast bool) (harness.Result, *trace.Recorder) {
	t.Helper()
	kc := kernel.DefaultConfig(s.Config)
	kc.Machine.WithOracle = oracle
	kc.Machine.DisableFastPaths = !fast
	s.Kernel = &kc
	r, rec, err := harness.Exec(s)
	if err != nil {
		t.Fatalf("%s: %v", s.Label(), err)
	}
	return r, rec
}

// TestFastPathsObservationIdentical: fast paths on vs off, with the
// oracle on and with it off — the Results must be deeply equal,
// OracleChecks included.
func TestFastPathsObservationIdentical(t *testing.T) {
	for _, s := range fastpathSpecs() {
		s := s
		t.Run(s.Label(), func(t *testing.T) {
			t.Parallel()
			for _, oracle := range []bool{true, false} {
				fast := runWith(t, s, oracle, true)
				slow := runWith(t, s, oracle, false)
				if !reflect.DeepEqual(fast, slow) {
					t.Errorf("oracle=%t: fast and slow paths diverge\nfast: %+v\nslow: %+v", oracle, fast, slow)
				}
				if oracle && fast.OracleChecks == 0 {
					t.Error("oracle run performed no checks")
				}
			}
		})
	}
}

// TestFastPathsTracedIdentical: with a tracer attached, the bulk paths
// and the reference pipeline must give identical Results and identical
// recorded events (the word loop emits nothing after word 0, so the
// bulk tail has nothing to skip).
func TestFastPathsTracedIdentical(t *testing.T) {
	for _, label := range []string{"A", "F"} {
		cfg, err := policy.ByLabel(label)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []harness.Workload{workload.KernelBuild(), workload.Stress(7, 300)} {
			s := harness.Spec{Workload: w, Config: cfg, Scale: workload.Small(), TraceN: 1 << 14}
			t.Run(s.Label(), func(t *testing.T) {
				t.Parallel()
				fast, frec := runTraced(t, s, true, true)
				slow, srec := runTraced(t, s, true, false)
				if !reflect.DeepEqual(fast, slow) {
					t.Errorf("traced fast and slow paths diverge\nfast: %+v\nslow: %+v", fast, slow)
				}
				if frec.Total() == 0 {
					t.Fatal("tracer recorded no events")
				}
				if frec.Total() != srec.Total() || !reflect.DeepEqual(frec.Events(), srec.Events()) {
					t.Errorf("recorded events diverge: fast %d, slow %d", frec.Total(), srec.Total())
				}
			})
		}
	}
}

// TestFastPathsMatchOracleRun: the oracle-checked run must agree with
// the unchecked run on everything except the oracle's own counters —
// checking is pure observation and never changes which path executes.
func TestFastPathsMatchOracleRun(t *testing.T) {
	for _, s := range fastpathSpecs() {
		s := s
		t.Run(s.Label(), func(t *testing.T) {
			t.Parallel()
			fast := runWith(t, s, false, true)
			checked := runWith(t, s, true, true)
			if checked.OracleChecks == 0 {
				t.Error("oracle run performed no checks")
			}
			checked.OracleChecks = 0
			checked.OracleViolations = 0
			if !reflect.DeepEqual(fast, checked) {
				t.Errorf("unchecked run diverges from oracle-checked run\nfast:    %+v\nchecked: %+v", fast, checked)
			}
		})
	}
}
