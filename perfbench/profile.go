package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// Host-time attribution from a CPU profile of the traced pass.
//
// Each sample is charged to the innermost frame of its stack that lies
// in a vcache/internal/<pkg> package. Flat self time would charge a
// sample to its leaf frame, and the simulator's hot leaves are runtime
// code its packages call: map hashing and lookup (aeshashbody,
// mapaccess2) under tlb.Lookup, memmove under cache and mem. By flat
// self time tlb reads about 5% of CPU on every simulator workload; by
// innermost repo frame it reads 33–40%, which is the cost a change to
// the tlb package can actually remove. Samples with no repo frame at
// all (GC, the scheduler, the benchmark's own HTTP client) are charged
// to "runtime".
//
// The stacks come from `go tool pprof -traces`, which prints every
// distinct stack of the profile with its value, leaf frame first.

// hostPackages are the layers host time is reported for, in report
// order. Repo packages not listed are charged to "other".
var hostPackages = []string{
	"tlb", "cache", "machine", "mem", "oracle", "arch", "pmap", "core", "vm",
	"fs", "dma", "kernel", "unixserver", "sim", "harness", "service",
	"workload", "other", "runtime",
}

const repoPrefix = "vcache/internal/"

// attribution is host CPU time per package, by innermost repo frame and
// by flat (leaf) frame.
type attribution struct {
	innermost map[string]time.Duration
	flat      map[string]time.Duration
	total     time.Duration
	samples   int // distinct stacks
}

func (a *attribution) share(m map[string]time.Duration, pkg string) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(m[pkg]) / float64(a.total)
}

func pkgOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, p := range hostPackages {
		if p == rest {
			return p, true
		}
	}
	return "other", true
}

// attribute runs `go tool pprof -traces` on a CPU profile and charges
// every stack it prints.
func attribute(path string, a *attribution) error {
	cmd := exec.Command("go", "tool", "pprof", "-symbolize=none", "-traces", path)
	// pprof keeps any files it saves under PPROF_TMPDIR; keep them in
	// the checkout.
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+outDir)
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	a.innermost, a.flat = map[string]time.Duration{}, map[string]time.Duration{}
	// A block starts after a separator line: its first line is the
	// value and the leaf frame, each further line one caller.
	var (
		value       time.Duration
		leaf, inner string
		inBlock     bool
	)
	flush := func() {
		if !inBlock {
			return
		}
		if inner == "" {
			inner = "runtime"
		}
		a.innermost[inner] += value
		a.flat[leaf] += value
		a.total += value
		a.samples++
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock, leaf, inner = true, "", ""
			continue
		}
		if !inBlock {
			continue // the header
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fn := fields[0]
		if leaf == "" {
			if len(fields) < 2 {
				return fmt.Errorf("go tool pprof -traces: unexpected line %q", line)
			}
			if value, err = time.ParseDuration(fields[0]); err != nil {
				return fmt.Errorf("go tool pprof -traces: %w", err)
			}
			fn = fields[1]
		}
		pkg, ok := pkgOf(fn)
		if !ok {
			pkg = "runtime"
		}
		if leaf == "" {
			leaf = pkg
		}
		if ok && inner == "" {
			inner = pkg
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	flush()
	if a.samples == 0 {
		return fmt.Errorf("go tool pprof -traces %s: no samples", path)
	}
	return nil
}
