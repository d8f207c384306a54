package core

import "fmt"

// This file introduces the consistency-backend axis, orthogonal to the
// architecture variants of variants.go. A Variant describes what the
// hardware *is* (write-back vs write-through, virtually vs physically
// indexed); a Backend describes what strategy manages synonym
// consistency on top of it:
//
//   - CMU — the paper's software scheme: lazy flush/purge driven by the
//     Table 2 state machine (the base all prior PRs modeled).
//   - RLT-VIVT — a VIVT cache with a hardware reverse-lookup synonym
//     table (arXiv 2108.00444): a remap to a synonym address hits the
//     RLT and re-binds the line instead of software flushing/purging
//     it. Software still pays for RLT capacity evictions.
//   - HYBRID — update/invalidate transitions selected per page by a
//     write-run heuristic (arXiv 1502.00101): pages whose synonyms
//     alternate writers switch from invalidate-mode (the Table 2
//     machine) to update-mode (uncached/write-through-to-memory), and
//     switch back when the synonym set collapses.
//
// A backend owns three things: its transition tables (the model surface
// printed by cmd/transitions and checked by the coverage map), its bulk
// fast-path eligibility (whether the machine-layer page-granular
// zero/copy shortcuts are proven identical under it), and the coverage
// kind its cells are attributed to (coverage.go). Runtime behavior —
// cycle charging, RLT occupancy, per-page mode switching — lives in
// internal/pmap, keyed off the backend kind, mirroring the existing
// split where CacheControl is the hardcoded Figure 1 algorithm and
// transitions.go is the printable model.

// BackendKind identifies a consistency-management backend.
type BackendKind uint8

const (
	// BackendCMU is the paper's software flush/purge scheme (the zero
	// value, so all pre-existing configs are CMU without change).
	BackendCMU BackendKind = iota
	// BackendRLT is the reverse-lookup synonym-table VIVT backend.
	BackendRLT
	// BackendHybrid is the per-page update/invalidate hybrid backend.
	BackendHybrid
	numBackends
)

func (k BackendKind) String() string {
	switch k {
	case BackendCMU:
		return "CMU"
	case BackendRLT:
		return "RLT-VIVT"
	case BackendHybrid:
		return "HYBRID"
	default:
		return fmt.Sprintf("BackendKind(%d)", uint8(k))
	}
}

// Backend is a consistency-management strategy. Implementations own
// their transition tables and declare their fast-path eligibility; the
// runtime consequences are applied by internal/pmap and internal/kernel
// based on Kind.
type Backend interface {
	// Kind identifies the backend; coverage maps are bound to it.
	Kind() BackendKind
	// Name is the human-readable backend name for tables and docs.
	Name() string
	// Target returns the backend's transition for the target cache line
	// in state s under op (the analogue of TargetTransition).
	Target(op Operation, s State) Transition
	// Other returns the backend's transition for an unaligned synonym
	// line (the analogue of OtherTransition).
	Other(op Operation, s State) Transition
	// BulkEligible reports whether the machine-layer bulk page fast
	// paths (BulkZeroPage/BulkCopyPage with snoopTail charging) are
	// proven observation-identical under this backend. A backend that
	// returns false MUST have the bulk paths disabled by kernel.New;
	// the root backend fast-path test asserts no backend is silently
	// both ineligible and bulk-enabled.
	BulkEligible() bool
}

// cmuBackend is the paper's scheme: Table 2 verbatim.
type cmuBackend struct{}

func (cmuBackend) Kind() BackendKind { return BackendCMU }
func (cmuBackend) Name() string      { return "CMU software flush/purge" }
func (cmuBackend) Target(op Operation, s State) Transition {
	return TargetTransition(op, s)
}
func (cmuBackend) Other(op Operation, s State) Transition {
	return OtherTransition(op, s)
}

// BulkEligible: proven by the root fastpath identity tests across A–F
// and the Table 5 systems since PR 4.
func (cmuBackend) BulkEligible() bool { return true }

// rltBackend rewrites the cells where software removes a line because a
// *CPU* operation arrives through a synonym address: the reverse-lookup
// table re-binds the line instead (DoRemap). Device-driven cells are
// untouched — DMA bypasses the cache on this machine, so the RLT cannot
// help there and software must still flush/purge for the device.
type rltBackend struct{}

func (rltBackend) Kind() BackendKind { return BackendRLT }
func (rltBackend) Name() string      { return "VIVT + reverse-lookup synonym table" }

// rltRewrite converts CPU-op-driven flush/purge cells into remaps.
func rltRewrite(op Operation, t Transition) Transition {
	if (op == CPURead || op == CPUWrite) && (t.Action == DoFlush || t.Action == DoPurge) {
		t.Action = DoRemap
	}
	return t
}

func (rltBackend) Target(op Operation, s State) Transition {
	return rltRewrite(op, TargetTransition(op, s))
}
func (rltBackend) Other(op Operation, s State) Transition {
	return rltRewrite(op, OtherTransition(op, s))
}

// BulkEligible: the RLT mechanics live entirely above the machine layer
// (pmap re-attributes consistency cycles; data movement is unchanged),
// so the bulk identity proof for CMU carries over — and the root
// backend fast-path test proves it directly.
func (rltBackend) BulkEligible() bool { return true }

// hybridBackend's invalidate mode is exactly the Table 2 machine; its
// update mode has no table at all (an updated page is uncached, so no
// line exists to transition). The printable/coverable surface is the
// invalidate-mode table.
type hybridBackend struct{}

func (hybridBackend) Kind() BackendKind { return BackendHybrid }
func (hybridBackend) Name() string      { return "hybrid update/invalidate (write-run)" }
func (hybridBackend) Target(op Operation, s State) Transition {
	return TargetTransition(op, s)
}
func (hybridBackend) Other(op Operation, s State) Transition {
	return OtherTransition(op, s)
}

// BulkEligible: hybrid flips per-page cacheability mid-run, but only at
// the end of a faulting access (hybridApplyPending), never between the
// bulk paths' first-word probe and their tail: the tail is fault-free,
// exactly as the reference loop's remaining words are. A switch fired by
// the first word's own fault invalidates the window translation, which
// the probe sees, so the call falls back to the word loop. The root
// backend fast-path test and pmap's TestHybridBulkPathsMatchReference
// (copies and zero-fills interleaved with switches and reverts) prove
// the identity.
func (hybridBackend) BulkEligible() bool { return true }

var backends = [numBackends]Backend{
	BackendCMU:    cmuBackend{},
	BackendRLT:    rltBackend{},
	BackendHybrid: hybridBackend{},
}

// Backends returns every registered backend, indexed by kind.
func Backends() []Backend { return backends[:] }

// BackendFor returns the backend implementation for a kind.
func BackendFor(k BackendKind) Backend {
	if k >= numBackends {
		panic(fmt.Sprintf("core: unknown backend kind %d", uint8(k)))
	}
	return backends[k]
}
