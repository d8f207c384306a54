package replay

import (
	"fmt"

	"vcache/internal/arch"
	"vcache/internal/fs"
	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/machine"
	"vcache/internal/policy"
	"vcache/internal/trace"
	"vcache/internal/vm"
	"vcache/internal/workload"
)

// Program is a parsed, re-executable op sequence plus the origin
// metadata needed to rebuild the system it ran on.
type Program struct {
	// Origin identifies the recorded run: the workload name (whose
	// Setup phase rebuilds the pre-run state), the policy configuration
	// label, the scale, and the machine dimensions.
	Origin trace.Origin
	// TraceN is the ring capacity a replay must use to re-export an
	// identical trace: the original export's retained count (Parse
	// rejects exports that dropped events, so retained == total).
	TraceN int
	// Ops is the recorded operation sequence in execution order.
	Ops []Op
}

// Parse extracts the replayable program from an exported trace.
// The export must carry an Origin block (recorded with RecordOps) and
// must not have dropped events: a ring that wrapped lost the head of
// the cause stream, and a program with a missing prefix re-executes
// from the wrong state.
func Parse(ex trace.Export) (*Program, error) {
	if ex.Origin == nil {
		return nil, fmt.Errorf("replay: export has no origin (recorded without RecordOps?)")
	}
	if ex.Dropped > 0 {
		return nil, fmt.Errorf("replay: export dropped %d events; the op stream is incomplete", ex.Dropped)
	}
	// Validate the origin's configuration label here, at parse time: a
	// corrupted or unknown label must be a hard error immediately, not
	// a deferred one (and never a silent fallback to some default
	// spec) — the program's ops were recorded under that exact
	// configuration's consistency behavior.
	if _, err := policy.ByLabel(ex.Origin.Config); err != nil {
		return nil, fmt.Errorf("replay: origin config: %w", err)
	}
	pr := &Program{Origin: *ex.Origin, TraceN: ex.Retained}
	for _, e := range ex.Events {
		if e.Kind != trace.EvOp {
			continue
		}
		op, err := ParseNote(e.Note)
		if err != nil {
			return nil, fmt.Errorf("replay: event seq %d: %w", e.Seq, err)
		}
		pr.Ops = append(pr.Ops, op)
	}
	if len(pr.Ops) == 0 {
		return nil, fmt.Errorf("replay: export contains no op events")
	}
	return pr, nil
}

// Spec builds the harness spec that replays the program under the same
// system the origin describes: same workload Setup, same configuration,
// same scale, same machine dimensions, and a trace ring sized so the
// re-export matches the original byte for byte.
func (pr *Program) Spec() (harness.Spec, error) {
	cfg, err := policy.ByLabel(pr.Origin.Config)
	if err != nil {
		return harness.Spec{}, fmt.Errorf("replay: %w", err)
	}
	w, err := pr.Workload()
	if err != nil {
		return harness.Spec{}, err
	}
	if pr.Origin.CPUs > machine.MaxCPUs {
		return harness.Spec{}, fmt.Errorf("replay: origin has %d CPUs, more than the maximum of %d", pr.Origin.CPUs, machine.MaxCPUs)
	}
	kc := kernel.DefaultConfig(cfg)
	if pr.Origin.CPUs > 0 {
		kc.Machine.CPUs = pr.Origin.CPUs
	}
	if pr.Origin.Frames > 0 {
		kc.Machine.Frames = pr.Origin.Frames
	}
	return harness.Spec{
		Workload:  w,
		Config:    cfg,
		Scale:     harness.Scale{Name: pr.Origin.Scale, Factor: pr.Origin.Factor},
		Kernel:    &kc,
		TraceN:    pr.TraceN,
		RecordOps: true,
	}, nil
}

// Workload wraps the program as a runnable workload: Setup is the
// origin workload's Setup (rebuilding the identical pre-run state) and
// Run re-issues the recorded operations. The workload keeps the origin
// name, so a replayed run's own Origin block — and therefore its whole
// re-exported trace — matches the original. An origin name no workload
// claims (a scenario program, or a fuzzer witness) gets no Setup: such
// programs are self-contained, starting from a freshly booted kernel.
func (pr *Program) Workload() (harness.Workload, error) {
	w := harness.Workload{Name: pr.Origin.Workload}
	if base, err := workload.ByName(pr.Origin.Workload); err == nil {
		w.Setup = base.Setup
	}
	w.Run = func(k *kernel.Kernel, _ harness.Scale) error {
		return pr.Run(k)
	}
	return w, nil
}

// Run executes the program's operations, in order, against k.
func (pr *Program) Run(k *kernel.Kernel) error {
	x := &executor{
		k:     k,
		procs: make(map[int]*kernel.Process),
		files: make(map[string]*fs.File),
		objs:  make(map[uint64]*vm.Object),
		vpns:  make(map[int]map[uint64]arch.VPN),
	}
	for i, op := range pr.Ops {
		if err := x.exec(op); err != nil {
			return fmt.Errorf("replay: op %d (%s): %w", i, op.Note(), err)
		}
	}
	return nil
}

// executor holds the translation tables correlating values the
// recorded run chose with the values this replay chooses. On a full
// replay the two coincide; on a subset (a minimized program) they may
// not, and the tables are what keep the remaining ops well-formed. A
// recorded value with no binding and no identity fallback is an error,
// which is exactly how the minimizer learns a reduction cut a
// dependency it needed.
type executor struct {
	k *kernel.Kernel
	// procs maps recorded pid -> live process (bound at spawn/fork).
	procs map[int]*kernel.Process
	// files maps file name -> handle, resolved on demand: FS.Open is a
	// pure lookup with no simulated machine activity, so late binding
	// cannot perturb the replay.
	files map[string]*fs.File
	// objs maps recorded object id -> live vm object (bound at the
	// first mapfile naming the id).
	objs map[uint64]*vm.Object
	// vpns maps recorded pid -> recorded vpn -> actual vpn, bound at
	// the ops whose result address is kernel-chosen (send, mapfile).
	// Unbound vpns fall back to identity: fixed-layout addresses (heap,
	// text, stack) are the same in any run.
	vpns map[int]map[uint64]arch.VPN
}

func (x *executor) proc(op Op, key string) (*kernel.Process, int, error) {
	pid, err := op.Int(key)
	if err != nil {
		return nil, 0, err
	}
	p, ok := x.procs[pid]
	if !ok {
		return nil, 0, fmt.Errorf("unknown %s %d", key, pid)
	}
	return p, pid, nil
}

func (x *executor) file(name string) (*fs.File, error) {
	if f, ok := x.files[name]; ok {
		return f, nil
	}
	f, err := x.k.FS.Open(name)
	if err != nil {
		return nil, err
	}
	x.files[name] = f
	return f, nil
}

// bindVPN records that the recorded run's address `rec` is this run's
// address `actual` for the next `pages` pages of the process.
func (x *executor) bindVPN(pid int, rec uint64, actual arch.VPN, pages uint64) {
	m := x.vpns[pid]
	if m == nil {
		m = make(map[uint64]arch.VPN)
		x.vpns[pid] = m
	}
	for j := uint64(0); j < pages; j++ {
		m[rec+j] = actual + arch.VPN(j)
	}
}

func (x *executor) vpn(op Op, pid int) (arch.VPN, error) {
	rec, err := op.Uint("vpn")
	if err != nil {
		return 0, err
	}
	if v, ok := x.vpns[pid][rec]; ok {
		return v, nil
	}
	return arch.VPN(rec), nil
}

func (x *executor) exec(op Op) error {
	k := x.k
	switch op.Verb {
	case "spawn":
		pid, err := op.Int("pid")
		if err != nil {
			return err
		}
		img, err := op.Str("img")
		if err != nil {
			return err
		}
		var f *fs.File
		if img != "-" {
			if f, err = x.file(img); err != nil {
				return err
			}
		}
		text, err := op.Uint("text")
		if err != nil {
			return err
		}
		heap, err := op.Uint("heap")
		if err != nil {
			return err
		}
		p, err := k.Spawn(f, text, heap)
		if err != nil {
			return err
		}
		x.procs[pid] = p
		return nil
	case "fork":
		pid, err := op.Int("pid")
		if err != nil {
			return err
		}
		parent, _, err := x.proc(op, "parent")
		if err != nil {
			return err
		}
		child, err := k.Fork(parent)
		if err != nil {
			return err
		}
		x.procs[pid] = child
		return nil
	case "exit":
		p, pid, err := x.proc(op, "pid")
		if err != nil {
			return err
		}
		k.Exit(p)
		delete(x.procs, pid)
		delete(x.vpns, pid)
		return nil
	case "syscall":
		p, _, err := x.proc(op, "pid")
		if err != nil {
			return err
		}
		return k.Syscall(p)
	case "create", "open", "remove":
		p, _, err := x.proc(op, "pid")
		if err != nil {
			return err
		}
		name, err := op.Str("file")
		if err != nil {
			return err
		}
		switch op.Verb {
		case "create":
			f, err := k.CreateFile(p, name)
			if err != nil {
				return err
			}
			x.files[name] = f
		case "open":
			f, err := k.OpenFile(p, name)
			if err != nil {
				return err
			}
			x.files[name] = f
		case "remove":
			if err := k.RemoveFile(p, name); err != nil {
				return err
			}
			delete(x.files, name)
		}
		return nil
	case "readf", "writef", "readfd":
		p, _, err := x.proc(op, "pid")
		if err != nil {
			return err
		}
		name, err := op.Str("file")
		if err != nil {
			return err
		}
		f, err := x.file(name)
		if err != nil {
			return err
		}
		page, err := op.Uint("page")
		if err != nil {
			return err
		}
		heap, err := op.Uint("heap")
		if err != nil {
			return err
		}
		switch op.Verb {
		case "readf":
			return k.ReadFilePage(p, f, page, heap)
		case "writef":
			return k.WriteFilePage(p, f, page, heap)
		default:
			return k.ReadFilePageDirect(p, f, page, heap)
		}
	case "touch", "readh":
		p, _, err := x.proc(op, "pid")
		if err != nil {
			return err
		}
		page, err := op.Uint("page")
		if err != nil {
			return err
		}
		words, err := op.Int("words")
		if err != nil {
			return err
		}
		if op.Verb == "touch" {
			return k.TouchHeap(p, page, words)
		}
		return k.ReadHeap(p, page, words)
	case "runtext":
		p, _, err := x.proc(op, "pid")
		if err != nil {
			return err
		}
		words, err := op.Int("words")
		if err != nil {
			return err
		}
		return k.RunText(p, words)
	case "send", "sharep":
		from, _, err := x.proc(op, "from")
		if err != nil {
			return err
		}
		to, toPID, err := x.proc(op, "to")
		if err != nil {
			return err
		}
		page, err := op.Uint("page")
		if err != nil {
			return err
		}
		rec, err := op.Uint("vpn")
		if err != nil {
			return err
		}
		var vpn arch.VPN
		if op.Verb == "send" {
			vpn, err = k.SendHeapPage(from, page, to)
		} else {
			vpn, err = k.SharePage(from, page, to)
		}
		if err != nil {
			return err
		}
		x.bindVPN(toPID, rec, vpn, 1)
		return nil
	case "readp", "writep":
		p, pid, err := x.proc(op, "pid")
		if err != nil {
			return err
		}
		vpn, err := x.vpn(op, pid)
		if err != nil {
			return err
		}
		words, err := op.Int("words")
		if err != nil {
			return err
		}
		if op.Verb == "readp" {
			return k.ReadPage(p, vpn, words)
		}
		return k.WritePage(p, vpn, words)
	case "mapfile":
		p, pid, err := x.proc(op, "pid")
		if err != nil {
			return err
		}
		name, err := op.Str("file")
		if err != nil {
			return err
		}
		f, err := x.file(name)
		if err != nil {
			return err
		}
		objID, err := op.Uint("obj")
		if err != nil {
			return err
		}
		pages, err := op.Uint("pages")
		if err != nil {
			return err
		}
		rec, err := op.Uint("vpn")
		if err != nil {
			return err
		}
		vpn, obj, err := k.MapFile(p, f, x.objs[objID], pages)
		if err != nil {
			return err
		}
		x.objs[objID] = obj
		x.bindVPN(pid, rec, vpn, pages)
		return nil
	case "writec":
		name, err := op.Str("file")
		if err != nil {
			return err
		}
		f, err := x.file(name)
		if err != nil {
			return err
		}
		pages, err := op.Uint("pages")
		if err != nil {
			return err
		}
		return k.WriteFileContent(f, pages)
	case "compute":
		cycles, err := op.Uint("cycles")
		if err != nil {
			return err
		}
		k.Compute(cycles)
		return nil
	case "sync":
		return k.Sync()
	case "flushp", "purgep":
		p, pid, err := x.proc(op, "pid")
		if err != nil {
			return err
		}
		vpn, err := x.vpn(op, pid)
		if err != nil {
			return err
		}
		if op.Verb == "flushp" {
			return k.FlushPage(p, vpn)
		}
		return k.PurgePage(p, vpn)
	case "sched":
		p, _, err := x.proc(op, "pid")
		if err != nil {
			return err
		}
		cpu, err := op.Int("cpu")
		if err != nil {
			return err
		}
		return k.Migrate(p, cpu)
	default:
		return fmt.Errorf("unhandled verb %q", op.Verb)
	}
}
