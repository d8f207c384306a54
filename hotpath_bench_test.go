// Hot-path benchmarks: how fast the simulator itself runs, fast paths
// on versus the word-at-a-time reference pipeline, in the default
// configuration users run (oracle on; fastpath_test.go proves the
// Results are identical either way). cmd/vcachebench runs the same
// comparison standalone and records it in BENCH_hotpath.json; these
// targets make it reachable via
//
//	go test -run - -bench HotPath .
package vcache

import (
	"testing"

	"vcache/internal/policy"
	"vcache/internal/workload"
)

// benchHotPath runs kernel-build (the heaviest benchmark: constant
// frame recycling, so the most zero/copy traffic) under cfg.
func benchHotPath(b *testing.B, label string, fast bool) {
	cfg, err := policy.ByLabel(label)
	if err != nil {
		b.Fatal(err)
	}
	kc := defaultKC(cfg)
	kc.Machine.DisableFastPaths = !fast
	runWorkload(b, workload.KernelBuild(), cfg, kc)
}

// BenchmarkHotPathFast is the production configuration: bulk zero/copy
// and DMA paths.
func BenchmarkHotPathFast(b *testing.B) {
	for _, label := range []string{"A", "F"} {
		b.Run(label, func(b *testing.B) { benchHotPath(b, label, true) })
	}
}

// BenchmarkHotPathReference forces the word-at-a-time pipeline
// (DisableFastPaths) — the denominator for the speedup trajectory.
func BenchmarkHotPathReference(b *testing.B) {
	for _, label := range []string{"A", "F"} {
		b.Run(label, func(b *testing.B) { benchHotPath(b, label, false) })
	}
}
