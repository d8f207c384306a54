package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/policy"
	"vcache/internal/workload"
)

// op is one measured operation: a simulation, or one request to the
// simulation service.
type op struct {
	latency time.Duration // end to end, as the caller saw it
	run     time.Duration // timed (Run) phase of its backing simulation
	backing bool          // a simulation ran for this operation
}

// pass is one measured repetition of a workload.
type pass struct {
	wall       time.Duration
	setup      time.Duration  // boot + setup + restore over the pass, plus daemon start-up
	phases     harness.Phases // summed over the pass's simulations
	ops        []op
	results    []harness.Result // one per simulation that ran, in a fixed order
	digest     string           // identifies every simulated result of the pass
	host       hostCounters
	attempted  int
	failures   []string
	violations int // stale transfers the oracle saw

	// Service workload only.
	svc       *svcStats
	bodies    map[string][]byte // content key -> result bytes served
	queueWait []float64         // ms: client latency minus the server's phase total

	spanTotals map[spanKey]*spanTotals // traced passes only
}

func (p *pass) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// bench is one benchmark workload. pass runs it once; tr is nil for an
// untraced pass.
type bench interface {
	pass(tr *passTrace) *pass
}

// resultsDigest hashes results in order; JSON of a Result is
// deterministic (struct field order, sorted map keys).
func resultsDigest(rs []harness.Result) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range rs {
		if err := enc.Encode(r); err != nil {
			panic(fmt.Sprintf("perfbench: encode result: %v", err))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// record adds one finished simulation to the pass and checks it.
func (p *pass) record(label string, res harness.Result, ph harness.Phases, latency time.Duration, err error) {
	p.attempted++
	if err != nil {
		p.fail("%s: %v", label, err)
		return
	}
	if err := res.CheckClean(); err != nil {
		p.violations += res.OracleViolations
		p.fail("%v", err)
		return
	}
	p.addSim(res, ph, latency)
}

// addSim folds one checked simulation into the pass.
func (p *pass) addSim(res harness.Result, ph harness.Phases, latency time.Duration) {
	p.results = append(p.results, res)
	p.ops = append(p.ops, op{latency: latency, run: ph.Run, backing: true})
	p.setup += ph.Boot + ph.Setup + ph.Restore
	p.phases.Boot += ph.Boot
	p.phases.Setup += ph.Setup
	p.phases.Restore += ph.Restore
	p.phases.Run += ph.Run
	p.phases.Collect += ph.Collect
}

// serial runs specs one at a time from one caller (a closed loop with
// one client), as vcachesim does.
func serial(specs []harness.Spec, tr *passTrace) *pass {
	p := &pass{}
	for i, spec := range specs {
		var sp *simSpans
		if tr != nil {
			sp = tr.sim(i, spec.Workload.Name)
			spec.Workload = traced(spec.Workload, sp)
			sp.begin("harness.exec")
		}
		start := time.Now()
		res, _, ph, err := harness.ExecTimed(context.Background(), spec)
		lat := time.Since(start)
		if sp != nil {
			sp.end()
		}
		p.record(spec.Label(), res, ph, lat, err)
	}
	p.digest = resultsDigest(p.results)
	return p
}

// kbuild is kernel-build under configuration F at full scale on one
// simulated CPU: the default vcachesim run.
type kbuild struct{}

func (kbuild) pass(tr *passTrace) *pass {
	return serial([]harness.Spec{{Workload: workload.KernelBuild(), Config: policy.ConfigF(), Scale: workload.Full()}}, tr)
}

// table4 is the full Table 4 matrix — the three paper benchmarks under
// A–F and the two peer backends, at full scale — run through
// harness.Runner with one worker per host CPU, as `tables` runs it.
type table4 struct{}

func (table4) pass(tr *passTrace) *pass {
	cfgs := append(policy.Configs(), policy.PeerBackends()...)
	plan := harness.Matrix(workload.Benchmarks(), cfgs, workload.Full())
	runner := &harness.Runner{Workers: runtime.GOMAXPROCS(0)}
	sps := make([]*simSpans, len(plan))
	if tr != nil {
		for i := range plan {
			sps[i] = tr.sim(i, plan[i].Workload.Name)
			plan[i].Workload = traced(plan[i].Workload, sps[i])
		}
		// The hooks run on the worker goroutine that executes the entry,
		// so the exec span nests around that entry's setup and run spans.
		runner.OnStart = func(i int, _ harness.Spec) { sps[i].begin("harness.exec") }
		runner.OnDone = func(o harness.Outcome) { sps[o.Index].end() }
	}
	outs := runner.Run(plan)
	p := &pass{}
	for _, o := range outs {
		p.record(o.Spec.Label(), o.Result, o.Phases, o.Phases.Total(), o.Err)
	}
	p.digest = resultsDigest(p.results)
	return p
}

// stressMP is the randomized torture workload on two simulated CPUs with
// the deterministic preemption scheduler, under A, F, RLT and HYB. Each
// pass runs stressSeeds stress programs, whose seeds and scheduler seeds
// are drawn from the workload seed.
type stressMP struct{ specs []harness.Spec }

const (
	stressSeeds   = 8
	stressSteps   = 1500 // the standard length (workload.ByName's stress-<seed>)
	stressQuantum = 50000
)

func newStressMP(seed uint64) *stressMP {
	r := newRand(seed ^ 0x5157)
	s := &stressMP{}
	for j := 0; j < stressSeeds; j++ {
		progSeed, schedSeed := r.next()%1_000_000, r.next()
		for _, cfg := range []policy.Config{policy.ConfigA(), policy.ConfigF(), policy.RLT(), policy.Hybrid()} {
			kc := kernel.DefaultConfig(cfg)
			kc.Machine.CPUs = 2
			kc.Sched = kernel.SchedConfig{Quantum: stressQuantum, Seed: schedSeed}
			s.specs = append(s.specs, harness.Spec{
				Workload: workload.Stress(progSeed, stressSteps),
				Config:   cfg,
				Scale:    workload.Full(),
				Kernel:   &kc,
			})
		}
	}
	return s
}

func (s *stressMP) pass(tr *passTrace) *pass { return serial(s.specs, tr) }

// rng is splitmix64: the benchmark's own input generator, so inputs
// depend only on the seed argument.
type rng struct{ s uint64 }

func newRand(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}
