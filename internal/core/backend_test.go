package core

import "testing"

// TestBackendRegistry pins the registry: one entry per kind, looked up
// by its own kind, with CMU as the zero value so every pre-backend
// configuration literal still denotes the paper's algorithm.
func TestBackendRegistry(t *testing.T) {
	all := Backends()
	if len(all) != int(numBackends) {
		t.Fatalf("Backends() returned %d entries, want %d", len(all), numBackends)
	}
	for i, b := range all {
		if b.Kind() != BackendKind(i) {
			t.Errorf("Backends()[%d].Kind() = %v", i, b.Kind())
		}
		if BackendFor(b.Kind()) != b {
			t.Errorf("BackendFor(%v) is not the registered backend", b.Kind())
		}
		if b.Name() == "" {
			t.Errorf("backend %v has no name", b.Kind())
		}
	}
	var zero BackendKind
	if zero != BackendCMU {
		t.Fatal("the zero BackendKind must be CMU")
	}
}

func TestBackendForUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BackendFor(numBackends) should panic")
		}
	}()
	BackendFor(numBackends)
}

// TestCMUBackendMatchesTable2 proves the CMU backend is the identity
// over the package-level transition tables: same Transition for every
// operation × state × role.
func TestCMUBackendMatchesTable2(t *testing.T) {
	b := BackendFor(BackendCMU)
	for _, op := range Operations {
		for _, s := range States {
			if got, want := b.Target(op, s), TargetTransition(op, s); got != want {
				t.Errorf("CMU Target(%s, %s) = %v, want %v", op, s, got, want)
			}
			if got, want := b.Other(op, s), OtherTransition(op, s); got != want {
				t.Errorf("CMU Other(%s, %s) = %v, want %v", op, s, got, want)
			}
		}
	}
	if !b.BulkEligible() {
		t.Error("CMU backend must be bulk-eligible (the proven baseline)")
	}
}

// TestRLTBackendRewritesCPUMaintenance pins the RLT transition table:
// every CPU-operation cell whose action is a flush or purge becomes a
// remap with the same next state, and every other cell — DMA
// operations, explicit flush/purge requests, and cells with no
// maintenance action — is untouched. Device transfers read memory
// directly, so a reverse-lookup structure inside the cache cannot
// replace the write-back a DMA read needs.
func TestRLTBackendRewritesCPUMaintenance(t *testing.T) {
	b := BackendFor(BackendRLT)
	rewrites := 0
	for _, op := range Operations {
		for _, s := range States {
			for _, role := range []struct {
				got, base Transition
			}{
				{b.Target(op, s), TargetTransition(op, s)},
				{b.Other(op, s), OtherTransition(op, s)},
			} {
				cpu := op == CPURead || op == CPUWrite
				maint := role.base.Action == DoFlush || role.base.Action == DoPurge
				if cpu && maint {
					rewrites++
					if role.got.Action != DoRemap {
						t.Errorf("RLT %s/%s: action %v, want remap", op, s, role.got.Action)
					}
					if role.got.Next != role.base.Next {
						t.Errorf("RLT %s/%s: next state %v, want %v (remap is functionally the same transition)",
							op, s, role.got.Next, role.base.Next)
					}
				} else if role.got != role.base {
					t.Errorf("RLT %s/%s: non-CPU-maintenance cell changed: %v != %v", op, s, role.got, role.base)
				}
			}
		}
	}
	if rewrites == 0 {
		t.Fatal("RLT backend rewrote no cells")
	}
	if !b.BulkEligible() {
		t.Error("RLT backend must be bulk-eligible (its mechanics live above the data path)")
	}
}

// TestHybridBackendTablesAndEligibility: the hybrid backend reuses the
// CMU tables verbatim (the adaptive policy is a pmap-level mode
// switch, not a different transition function) and is bulk-eligible —
// its mode switches apply only at the end of a faulting access, which
// the bulk paths' first-word probe already re-checks.
func TestHybridBackendTablesAndEligibility(t *testing.T) {
	b := BackendFor(BackendHybrid)
	for _, op := range Operations {
		for _, s := range States {
			if got, want := b.Target(op, s), TargetTransition(op, s); got != want {
				t.Errorf("hybrid Target(%s, %s) = %v, want %v", op, s, got, want)
			}
			if got, want := b.Other(op, s), OtherTransition(op, s); got != want {
				t.Errorf("hybrid Other(%s, %s) = %v, want %v", op, s, got, want)
			}
		}
	}
	if !b.BulkEligible() {
		t.Error("hybrid backend must be bulk-eligible (its mode switches never fall inside a bulk tail)")
	}
}

// TestCoverageBackendBinding pins the backend-awareness of coverage
// maps: the kind is stamped into the mask's high byte (CMU stamps
// nothing, keeping every pre-backend mask value), maps of different
// backends refuse to merge, and the zero value is a CMU map.
func TestCoverageBackendBinding(t *testing.T) {
	cmu := NewCoverage()
	if cmu.Backend() != BackendCMU {
		t.Fatal("NewCoverage must build a CMU-bound map")
	}
	var zero Coverage
	if zero.Backend() != BackendCMU {
		t.Fatal("zero-value Coverage must be CMU-bound")
	}

	rlt := NewCoverageFor(BackendRLT)
	if rlt.Backend() != BackendRLT {
		t.Fatalf("Backend() = %v, want RLT", rlt.Backend())
	}
	c := Cell{Op: OpFlush, Role: RoleOther, State: Dirty}
	cmu.Note(c.Op, c.Role, c.State)
	rlt.Note(c.Op, c.Role, c.State)
	if cmu.Mask()>>maskBackendShift != 0 {
		t.Errorf("CMU mask carries a backend stamp: %#x", cmu.Mask())
	}
	if got := BackendKind(rlt.Mask() >> maskBackendShift); got != BackendRLT {
		t.Errorf("RLT mask stamp = %v, want RLT (mask %#x)", got, rlt.Mask())
	}
	// The cell bits themselves are backend-independent.
	if low := rlt.Mask() & (1<<maskBackendShift - 1); low != cmu.Mask() {
		t.Errorf("cell bits differ across backends: %#x vs %#x", low, cmu.Mask())
	}

	defer func() {
		if recover() == nil {
			t.Error("merging an RLT map into a CMU map should panic")
		}
	}()
	cmu.Merge(rlt)
}

func TestNewCoverageForUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCoverageFor(numBackends) should panic")
		}
	}()
	NewCoverageFor(numBackends)
}
