// Backend fast-path safety: every registered consistency backend must
// either PROVE the bulk fast paths preserve its observable behavior
// (DeepEqual identity against the word-at-a-time reference pipeline)
// or DECLARE itself ineligible, in which case the kernel must provably
// have disabled the bulk paths on its machine. No backend may silently
// do neither — a new backend added without a decision fails here.
package vcache

import (
	"reflect"
	"testing"

	"vcache/internal/core"
	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/policy"
	"vcache/internal/workload"
)

// backendConfig finds the policy configuration that runs under kind.
func backendConfig(t *testing.T, kind core.BackendKind) policy.Config {
	t.Helper()
	for _, cfg := range policy.All() {
		if cfg.Features.Backend == kind {
			return cfg
		}
	}
	t.Fatalf("no policy configuration runs backend %v — every backend must be reachable from a label", kind)
	return policy.Config{}
}

func TestEveryBackendFastPathSafeOrIneligible(t *testing.T) {
	for _, b := range core.Backends() {
		b := b
		t.Run(b.Kind().String(), func(t *testing.T) {
			t.Parallel()
			cfg := backendConfig(t, b.Kind())

			// The kernel must honor the declaration: bulk paths live
			// exactly when the backend is eligible.
			k, err := kernel.New(kernel.DefaultConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if got := k.M.BulkDataEnabled(); got != b.BulkEligible() {
				t.Fatalf("backend %v: BulkEligible()=%t but the booted machine has bulk paths enabled=%t",
					b.Kind(), b.BulkEligible(), got)
			}
			if !b.BulkEligible() {
				return // ineligible and provably disabled: safe.
			}

			// Eligible: prove it. Oracle on (the default configuration),
			// fast vs reference pipeline, Results must be deeply equal —
			// every cycle, every counter, every oracle check.
			for _, w := range []harness.Workload{workload.Stress(7, 300), workload.KernelBuild()} {
				s := harness.Spec{Workload: w, Config: cfg, Scale: workload.Small()}
				fast := runWith(t, s, true, true)
				slow := runWith(t, s, true, false)
				if !reflect.DeepEqual(fast, slow) {
					t.Errorf("%s: backend %v diverges between bulk and reference paths\nfast: %+v\nslow: %+v",
						s.Label(), b.Kind(), fast, slow)
				}
			}
		})
	}
}
