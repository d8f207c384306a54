// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed time and checks every simulated result:
//
//	perfbench --workload kbuild|table4|stress-mp|vcached --seed N --seconds S --trace 0|1
//
// With --trace 0 it runs untraced passes back to back and reports the
// end-to-end metrics. With --trace 1 it alternates untraced and traced
// passes (spans, under a CPU profile), then runs the isolated layer
// drivers, and reports the per-layer metrics with the tracing overhead.
// Either way it prints a human-readable report and, as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// It exits 1 if any simulation or request failed, tripped the staleness
// oracle, or produced a result that differs between passes, between the
// traced and untraced passes, or from the digest recorded in
// rationale.json.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"
)

//go:embed rationale.json
var rationaleJSON []byte

func main() {
	wl := flag.String("workload", "", "kbuild, table4, stress-mp or vcached")
	seed := flag.Uint64("seed", 1, "input seed (kbuild and table4 run the unseeded paper drivers and ignore it)")
	seconds := flag.Float64("seconds", 10, "measured time of the run")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from a traced pass")
	flag.Parse()
	os.Exit(run(*wl, *seed, time.Duration(*seconds*float64(time.Second)), *traceMode == 1))
}

func newBench(name string, seed uint64) (bench, error) {
	switch name {
	case "kbuild":
		return kbuild{}, nil
	case "table4":
		return table4{}, nil
	case "stress-mp":
		return newStressMP(seed), nil
	case "vcached":
		return newVcached(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (kbuild, table4, stress-mp, vcached)", name)
}

// checker accumulates the correctness verdict of a run.
type checker struct {
	attempted  int
	failures   []string
	violations int
	digest     string
}

func (c *checker) add(what string, ps ...*pass) {
	for _, p := range ps {
		c.attempted += p.attempted
		c.failures = append(c.failures, p.failures...)
		c.violations += p.violations
		switch {
		case p.digest == "":
			// The pass checks results without producing a digest.
		case c.digest == "":
			c.digest = p.digest
		case p.digest != c.digest:
			c.attempted++
			c.failures = append(c.failures, fmt.Sprintf("%s pass: result digest %s differs from the first pass's %s", what, p.digest, c.digest))
		}
	}
}

// recorded checks the digest against the one recorded for this
// workload and seed, if any.
func (c *checker) recorded(wl string, seed uint64) (want string) {
	var r struct {
		Digests map[string]map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(rationaleJSON, &r); err != nil {
		c.failures = append(c.failures, fmt.Sprintf("rationale.json: %v", err))
		return ""
	}
	want = r.Digests[wl]["*"]
	if want == "" {
		want = r.Digests[wl][strconv.FormatUint(seed, 10)]
	}
	if want != "" && want != c.digest {
		c.attempted++
		c.failures = append(c.failures, fmt.Sprintf("result digest %s differs from the recorded %s", c.digest, want))
	}
	return want
}

// measure runs one pass of b, traced when tr is non-nil, starting from a
// collected heap so one pass's garbage is not billed to the next.
func measure(b bench, tr *passTrace) *pass {
	runtime.GC()
	before := readHost()
	t := time.Now()
	p := b.pass(tr)
	p.wall = time.Since(t)
	p.host = readHost().sub(before)
	return p
}

// timed runs untraced passes back to back until budget has elapsed (at
// least one).
func timed(b bench, budget time.Duration) []*pass {
	var ps []*pass
	for start := time.Now(); len(ps) == 0 || time.Since(start) < budget; {
		ps = append(ps, measure(b, nil))
	}
	return ps
}

// alternate runs untraced and traced passes in turn until budget has
// elapsed (at least one of each), so drift in the host's speed falls on
// both alike and their difference is the tracing overhead. The spans of
// the first traced pass are written to dump.
func alternate(b bench, budget time.Duration, dump string) (untraced, traced []*pass, err error) {
	for start := time.Now(); len(traced) == 0 || time.Since(start) < budget; {
		untraced = append(untraced, measure(b, nil))
		tr := newPassTrace()
		p := measure(b, tr)
		spans := tr.spans()
		p.spanTotals = summarize(spans)
		if len(traced) == 0 {
			if err := writeSpans(dump, spans); err != nil {
				return nil, nil, fmt.Errorf("write spans: %w", err)
			}
		}
		traced = append(traced, p)
	}
	return untraced, traced, nil
}

// outDir receives the span dumps and CPU profiles of --trace 1, under
// the build directory of the checkout the benchmark runs in.
var outDir = filepath.Join(".bench_build", "perfbench")

func run(wl string, seed uint64, budget time.Duration, traceMode bool) int {
	b, err := newBench(wl, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	c := &checker{}
	// One untimed pass first, so lazy set-up and heap growth are not
	// measured; its results are checked like every other pass.
	c.add("warm-up", b.pass(nil))

	specs := endToEndSpecs
	var values map[string]float64
	var report func()
	if !traceMode {
		values, report = endToEndRun(b, seed, budget, c)
	} else {
		specs = perLayerSpecs
		values, report, err = perLayerRun(b, fmt.Sprintf("%s-seed%d", wl, seed), seed, budget, c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	want := c.recorded(wl, seed)

	fmt.Printf("perfbench %s seed=%d trace=%v  nproc=%d GOMAXPROCS=%d %s\n",
		wl, seed, traceMode, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	report()
	fmt.Printf("result digest: %s", c.digest)
	if want != "" {
		fmt.Printf(" (recorded: %s)", want)
	}
	fmt.Println()
	for _, f := range c.failures {
		fmt.Println("FAILED:", f)
	}

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(c.failures) == 0, c.attempted, len(c.failures), emit(specs, values)}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// endToEndRun measures untraced passes for budget.
func endToEndRun(b bench, seed uint64, budget time.Duration, c *checker) (map[string]float64, func()) {
	ps := timed(b, budget)
	c.add("timed", ps...)
	if v, ok := b.(*vcached); ok {
		vp := &pass{bodies: ps[len(ps)-1].bodies}
		v.verify(seed, vp)
		c.add("verify", vp)
	}
	return endToEnd(ps, c)
}

// perLayerRun alternates untraced and traced passes for most of budget
// under a CPU profile, then runs the layer drivers. The span dump and
// the profile are written to outDir/<name>.spans.jsonl and
// outDir/<name>.cpu.pprof.
func perLayerRun(b bench, name string, seed uint64, budget time.Duration, c *checker) (map[string]float64, func(), error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	base := filepath.Join(outDir, name)
	dump, prof := base+".spans.jsonl", base+".cpu.pprof"
	f, err := os.Create(prof)
	if err != nil {
		return nil, nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	untraced, traced, err := alternate(b, budget*4/5, dump)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	c.add("untraced", untraced...)
	c.add("traced", traced...)
	var attr attribution
	if err := attribute(prof, &attr); err != nil {
		return nil, nil, err
	}
	costs, err := runDrivers(seed)
	if err != nil {
		c.attempted++
		c.failures = append(c.failures, fmt.Sprintf("layer drivers: %v", err))
	}
	values, report := perLayer(untraced, traced, &attr, costs)
	return values, func() {
		report()
		fmt.Printf("spans: %s\ncpu profile: %s (go tool pprof reads it)\n", dump, prof)
	}, nil
}
