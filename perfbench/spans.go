package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"vcache/internal/arch"
	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/machine"
	"vcache/internal/tlb"
)

// Tracing is done from outside the program: spans are recorded around
// calls into public functions and hooks (the workload's Setup and Run,
// the machine's fault handler and page-table walker, the harness
// runner's progress hooks, the HTTP client), never inside the program.

// spanRec is one closed span of a traced pass.
type spanRec struct {
	Name     string `json:"name"`
	ID       int    `json:"id"`       // the simulation or request the span belongs to
	Workload string `json:"workload"` // the simulated benchmark, or the request class
	Parent   int    `json:"parent"`   // index of the enclosing span in the pass, -1 for a root
	Start    int64  `json:"start_ns"` // since the pass began
	End      int64  `json:"end_ns"`
	Self     int64  `json:"self_ns"` // duration minus the part its child spans cover
}

// simSpans records the spans of one simulation or request. A simulation
// runs on one goroutine and its spans nest strictly (a walk inside a
// fault inside the run), so a stack of open spans is enough, and each
// span's self time is settled as its children close.
type simSpans struct {
	id       int
	workload string
	base     time.Time
	spans    []spanRec
	open     []int   // indices into spans of the open spans, innermost last
	covered  []int64 // per open span: time covered by its closed children
}

func (s *simSpans) begin(name string) {
	parent := -1
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	s.spans = append(s.spans, spanRec{Name: name, ID: s.id, Workload: s.workload, Parent: parent, Start: int64(time.Since(s.base))})
	s.open = append(s.open, len(s.spans)-1)
	s.covered = append(s.covered, 0)
}

func (s *simSpans) end() {
	n := len(s.open) - 1
	sp := &s.spans[s.open[n]]
	sp.End = int64(time.Since(s.base))
	dur := sp.End - sp.Start
	sp.Self = dur - s.covered[n]
	s.open, s.covered = s.open[:n], s.covered[:n]
	if n > 0 {
		s.covered[n-1] += dur
	}
}

// passTrace collects the spans of one traced pass.
type passTrace struct {
	base time.Time
	mu   sync.Mutex
	sims []*simSpans
}

func newPassTrace() *passTrace { return &passTrace{base: time.Now()} }

// sim starts the span record of one simulation or request.
func (t *passTrace) sim(id int, workload string) *simSpans {
	s := &simSpans{id: id, workload: workload, base: t.base}
	t.mu.Lock()
	t.sims = append(t.sims, s)
	t.mu.Unlock()
	return s
}

// spans returns every span of the pass, ordered by simulation id, with
// parent indices rebased onto the merged list.
func (t *passTrace) spans() []spanRec {
	sims := append([]*simSpans(nil), t.sims...)
	sort.SliceStable(sims, func(i, j int) bool { return sims[i].id < sims[j].id })
	var out []spanRec
	for _, s := range sims {
		off := len(out)
		for _, sp := range s.spans {
			if sp.Parent >= 0 {
				sp.Parent += off
			}
			out = append(out, sp)
		}
	}
	return out
}

// spanKey groups spans by name, per workload and over all workloads
// (workload "").
type spanKey struct{ workload, name string }

// spanTotals is the aggregate of a group of spans.
type spanTotals struct {
	count  int
	total  int64
	selfNS int64
}

func (t *spanTotals) add(o *spanTotals) {
	t.count += o.count
	t.total += o.total
	t.selfNS += o.selfNS
}

func summarize(spans []spanRec) map[spanKey]*spanTotals {
	m := make(map[spanKey]*spanTotals)
	for _, sp := range spans {
		one := &spanTotals{count: 1, total: sp.End - sp.Start, selfNS: sp.Self}
		for _, k := range []spanKey{{"", sp.Name}, {sp.Workload, sp.Name}} {
			if m[k] == nil {
				m[k] = &spanTotals{}
			}
			m[k].add(one)
		}
	}
	return m
}

// writeSpans writes spans to path as JSON lines.
func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// faultSpy wraps the kernel's trap handler (the vm layer) with a span
// per fault.
type faultSpy struct {
	inner machine.FaultHandler
	sp    *simSpans
}

func (f *faultSpy) HandleFault(x machine.Fault) error {
	f.sp.begin("vm.fault")
	defer f.sp.end()
	return f.inner.HandleFault(x)
}

// walkSpy wraps the page-table walker (the pmap layer) with a span per
// TLB-miss walk.
type walkSpy struct {
	inner tlb.Walker
	sp    *simSpans
}

func (w *walkSpy) Walk(space arch.SpaceID, vpn arch.VPN) (tlb.Entry, bool) {
	w.sp.begin("pmap.walk")
	defer w.sp.end()
	return w.inner.Walk(space, vpn)
}

// traced returns w with its Setup and Run bracketed by spans. For the
// duration of Run — after the harness's counter reset, before Collect —
// the machine's fault handler and walker are wrapped so every vm fault
// and pmap walk is a span too. The wrappers only observe: a traced
// simulation's Result is identical to an untraced one, which the
// benchmark checks by digest.
func traced(w harness.Workload, sp *simSpans) harness.Workload {
	setup, run := w.Setup, w.Run
	if setup != nil {
		w.Setup = func(k *kernel.Kernel, s harness.Scale) error {
			sp.begin("harness.setup")
			defer sp.end()
			return setup(k, s)
		}
	}
	w.Run = func(k *kernel.Kernel, s harness.Scale) error {
		sp.begin("harness.run")
		defer sp.end()
		k.M.SetFaultHandler(&faultSpy{inner: k.VM, sp: sp})
		k.M.SetWalker(&walkSpy{inner: k.PM, sp: sp})
		defer func() {
			k.M.SetFaultHandler(k.VM)
			k.M.SetWalker(k.PM)
		}()
		if run == nil {
			return nil
		}
		return run(k, s)
	}
	return w
}
