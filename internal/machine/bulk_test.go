package machine

import (
	"reflect"
	"testing"

	"vcache/internal/arch"
	"vcache/internal/tlb"
)

// Source and destination pages of the bulk tests: consecutive virtual
// pages, so distinct cache colors, mapped to distinct frames.
const (
	bulkSrcVPN = arch.VPN(5)
	bulkDstVPN = arch.VPN(6)
	bulkSrcPFN = arch.PFN(7)
	bulkDstPFN = arch.PFN(8)
)

// newBulkMachine builds an oracle-checked uniprocessor with the bulk
// test pages mapped, fast paths on or off.
func newBulkMachine(t *testing.T, noFast bool) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Frames = 64
	cfg.DisableFastPaths = noFast
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetWalker(&tableWalker{entries: map[arch.VPN]tlb.Entry{
		bulkSrcVPN: {PFN: bulkSrcPFN, Prot: arch.ProtReadWrite},
		bulkDstVPN: {PFN: bulkDstPFN, Prot: arch.ProtReadWrite},
	}})
	return m
}

// copyBulkPage copies the source page to the destination the way the
// pmap does: the bulk path first, then the reference loop for whatever
// it did not perform. It returns how many words the bulk path took.
func copyBulkPage(t *testing.T, m *Machine) uint64 {
	t.Helper()
	sbase, dbase := m.Geom.PageBase(bulkSrcVPN), m.Geom.PageBase(bulkDstVPN)
	n, err := m.BulkCopyPage(0, sbase, dbase)
	if err != nil {
		t.Fatal(err)
	}
	for i := n; i < m.Geom.WordsPerPage(); i++ {
		off := arch.VA(i * arch.WordSize)
		v, err := m.Read(0, sbase+off)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Write(0, dbase+off, v); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestBulkPathsOracleCatchesStaleData sabotages the consistency
// protocol around the bulk paths and requires the oracle to report the
// same stale transfers on the bulk path as on the word-at-a-time
// reference: same violations in the same order, same check count.
func TestBulkPathsOracleCatchesStaleData(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, m *Machine)
	}{
		{
			// Every other source line is cached, then a device
			// overwrites the frame with no purge first: the copy reads
			// stale cached lines and fresh memory lines.
			name: "no-purge-before-DMAWrite/BulkCopyPage",
			run: func(t *testing.T, m *Machine) {
				sbase := m.Geom.PageBase(bulkSrcVPN)
				words, wpl := m.Geom.WordsPerPage(), m.Geom.WordsPerLine()
				for w := uint64(0); w < words; w += 2 * wpl {
					if _, err := m.Read(0, sbase+arch.VA(w*arch.WordSize)); err != nil {
						t.Fatal(err)
					}
				}
				data := make([]uint64, words)
				for i := range data {
					data[i] = 0xD0000 + uint64(i)
				}
				m.DMAWrite(m.Geom.FrameBase(bulkSrcPFN), data)
				if n := copyBulkPage(t, m); !m.noFast && n != words {
					t.Fatalf("bulk copy performed %d of %d words", n, words)
				}
			},
		},
		{
			// Dirty lines in the cache, then a device reads the frame
			// with no flush first: it receives stale memory.
			name: "no-flush-before-DMARead",
			run: func(t *testing.T, m *Machine) {
				sbase := m.Geom.PageBase(bulkSrcVPN)
				words := m.Geom.WordsPerPage()
				for w := uint64(0); w < words; w += 3 {
					if err := m.Write(0, sbase+arch.VA(w*arch.WordSize), 0xA000+w); err != nil {
						t.Fatal(err)
					}
				}
				m.DMARead(m.Geom.FrameBase(bulkSrcPFN), int(words))
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast, slow := newBulkMachine(t, false), newBulkMachine(t, true)
			tc.run(t, fast)
			tc.run(t, slow)
			fv, sv := fast.Oracle.Violations(), slow.Oracle.Violations()
			if len(fv) == 0 {
				t.Fatal("the oracle missed the stale transfers on the bulk path")
			}
			if !reflect.DeepEqual(fv, sv) {
				t.Errorf("violations differ:\nbulk:      %v\nreference: %v", fv, sv)
			}
			if fast.Oracle.Checks() != slow.Oracle.Checks() {
				t.Errorf("checks: bulk %d, reference %d", fast.Oracle.Checks(), slow.Oracle.Checks())
			}
		})
	}
}

// TestBulkCopyPageAllocs: with the oracle on, a bulk page copy
// allocates nothing — the delivered-words buffer belongs to the machine.
func TestBulkCopyPageAllocs(t *testing.T) {
	m := newBulkMachine(t, false)
	words := m.Geom.WordsPerPage()
	if n := copyBulkPage(t, m); n != words {
		t.Fatalf("bulk copy performed %d of %d words", n, words)
	}
	sbase, dbase := m.Geom.PageBase(bulkSrcVPN), m.Geom.PageBase(bulkDstVPN)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := m.BulkCopyPage(0, sbase, dbase); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("%v allocations per BulkCopyPage, want 0", n)
	}
	if v := m.Oracle.Violations(); len(v) != 0 {
		t.Errorf("clean copies flagged: %v", v)
	}
}
