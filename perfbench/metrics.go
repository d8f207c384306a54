package main

import (
	"fmt"

	"vcache/internal/harness"
	"vcache/internal/sim"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec defines a reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
}

var endToEndSpecs = []metricSpec{
	{"wall_s", "s", "lower"},
	{"run_ms_p50", "ms", "lower"},
	{"sim_mcycles_per_s", "Mcycles/s", "higher"},
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_p90", "ms", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"alloc_mb_per_sim", "MB", "lower"},
	{"sim_mcycles", "Mcycles", "lower"},
}

// spanNames are the spans the traced pass records.
var spanNames = []string{"harness.exec", "harness.setup", "harness.run", "vm.fault", "pmap.walk", "client.request"}

// paperBenchmarks are the workloads whose fault share is reported one
// by one (table4 runs all three).
var paperBenchmarks = []string{"afs-bench", "latex-paper", "kernel-build"}

var simCategories = []sim.Category{sim.CatAccess, sim.CatFlush, sim.CatPurge, sim.CatFault, sim.CatDMA, sim.CatCompute, sim.CatRLT, sim.CatRLTEvict}

var perLayerSpecs = func() []metricSpec {
	s := []metricSpec{
		{"vm.fault_ms", "ms", "lower"},
		{"vm.faults", "count", "lower"},
		{"vm.fault_share", "frac", "lower"},
	}
	for _, b := range paperBenchmarks {
		s = append(s, metricSpec{"vm.fault_share." + b, "frac", "lower"})
	}
	s = append(s,
		metricSpec{"pmap.walk_ms", "ms", "lower"},
		metricSpec{"pmap.walks", "count", "lower"},
		metricSpec{"tlb.walks_per_kaccess", "walks/kaccess", "lower"},
		metricSpec{"machine.host_ns_per_access", "ns", "lower"},
	)
	for _, n := range spanNames {
		s = append(s, metricSpec{"self_ms." + n, "ms", "lower"})
	}
	s = append(s,
		metricSpec{"trace.overhead_frac", "frac", "lower"},
		metricSpec{"trace.spans", "count", "lower"},
	)
	for _, p := range hostPackages {
		s = append(s, metricSpec{"host_share." + p, "frac", "lower"})
	}
	for _, d := range drivers {
		s = append(s,
			metricSpec{d.name + "_ns", "ns", "lower"},
			metricSpec{d.name + "_bytes", "B", "lower"},
			metricSpec{d.name + "_allocs", "allocs", "lower"},
		)
	}
	for _, ph := range []string{"boot", "setup", "restore", "run", "collect"} {
		s = append(s, metricSpec{"harness." + ph + "_ms", "ms", "lower"})
	}
	s = append(s,
		metricSpec{"runtime.gc_cycles", "count", "lower"},
		metricSpec{"runtime.gc_pause_ms", "ms", "lower"},
		metricSpec{"service.cache_hit_ratio", "frac", "higher"},
		metricSpec{"service.snapshot_hit_ratio", "frac", "higher"},
		metricSpec{"service.singleflight_hits", "count", "higher"},
		metricSpec{"service.rejected", "count", "lower"},
		metricSpec{"service.queue_wait_ms", "ms", "lower"},
		metricSpec{"service.served_share.hit", "frac", "higher"},
		metricSpec{"service.served_share.warm", "frac", "higher"},
		metricSpec{"service.served_share.cold", "frac", "lower"},
	)
	for _, c := range simCategories {
		s = append(s, metricSpec{"sim.cycles_by." + c.String(), "cycles", "lower"})
	}
	for _, n := range []string{"ctl.invocations", "ctl.page_flushes", "ctl.page_purges", "pm.consistency_faults", "fs.hits", "fs.misses", "disk.reads", "disk.writes"} {
		s = append(s, metricSpec{n, "count", "lower"})
	}
	return s
}()

// emit builds the JSON metrics object: every spec, in its unit; a
// metric that does not apply to the workload reads 0.
func emit(specs []metricSpec, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.Name] = metric{Value: values[s.Name], Unit: s.Unit}
	}
	return out
}

// div is a/b, or 0 when b is 0 (a pass whose every simulation failed).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func getSpan(tot map[spanKey]*spanTotals, workload, name string) *spanTotals {
	if t := tot[spanKey{workload, name}]; t != nil {
		return t
	}
	return &spanTotals{}
}

func ms(d interface{ Nanoseconds() int64 }) float64 { return float64(d.Nanoseconds()) / 1e6 }

func cycles(rs []harness.Result) float64 {
	var c uint64
	for _, r := range rs {
		c += r.Cycles
	}
	return float64(c)
}

func accesses(rs []harness.Result) float64 {
	var a uint64
	for _, r := range rs {
		a += r.Machine.Reads + r.Machine.Writes + r.Machine.Fetches
	}
	return float64(a)
}

// perPass collects f over the passes.
func perPass(ps []*pass, f func(*pass) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// endToEnd computes the end-to-end metrics of the timed passes. Times
// per pass are reported as the median over passes; latencies pool every
// operation of every pass.
func endToEnd(ps []*pass, c *checker) (map[string]float64, func()) {
	var lat, run []float64
	sims := 0
	for _, p := range ps {
		sims += len(p.results)
		for _, o := range p.ops {
			lat = append(lat, ms(o.latency))
			if o.backing {
				run = append(run, ms(o.run))
			}
		}
	}
	p90, beyond := percentile(lat, 90)
	v := map[string]float64{
		"wall_s":            median(perPass(ps, func(p *pass) float64 { return p.wall.Seconds() })),
		"run_ms_p50":        median(run),
		"sim_mcycles_per_s": median(perPass(ps, func(p *pass) float64 { return div(cycles(p.results)/1e6, p.phases.Run.Seconds()) })),
		"latency_ms_p50":    median(lat),
		"latency_ms_p90":    p90,
		"req_per_s":         median(perPass(ps, func(p *pass) float64 { return div(float64(len(p.ops)), p.wall.Seconds()) })),
		"setup_s":           median(perPass(ps, func(p *pass) float64 { return p.setup.Seconds() })),
		"peak_rss_mb":       peakRSSMB(),
		"alloc_mb_per_sim":  median(perPass(ps, func(p *pass) float64 { return div(float64(p.host.allocBytes)/1e6, float64(len(p.results))) })),
		"sim_mcycles":       median(perPass(ps, func(p *pass) float64 { return cycles(p.results) / 1e6 })),
	}
	return v, func() {
		fmt.Printf("end-to-end, %d passes, %d simulations, %d operations (median over passes unless noted):\n", len(ps), sims, len(lat))
		for _, s := range endToEndSpecs {
			note := ""
			switch s.Name {
			case "run_ms_p50":
				note = fmt.Sprintf("(n=%d simulations)", len(run))
			case "latency_ms_p50":
				note = fmt.Sprintf("(n=%d operations)", len(lat))
			case "latency_ms_p90":
				note = fmt.Sprintf("(n=%d, %d beyond)", len(lat), beyond)
				if beyond < 10 {
					note += " fewer than 10 samples beyond p90: indicative only"
				}
			case "peak_rss_mb":
				note = "(process high-water mark)"
			}
			fmt.Printf("  %-20s %14.4f %-10s %s\n", s.Name, v[s.Name], s.Unit, note)
		}
		failedFrac := 0.0
		if c.attempted > 0 {
			failedFrac = float64(len(c.failures)) / float64(c.attempted)
		}
		fmt.Printf("  %-20s %14d %-10s\n", "oracle_violations", c.violations, "count")
		fmt.Printf("  %-20s %14.4f %-10s (%d of %d)\n", "failed_frac", failedFrac, "frac", len(c.failures), c.attempted)
	}
}

// perLayer computes the per-layer metrics from the untraced passes (host
// phase times, simulated counts, service counters), the traced passes
// (spans, CPU profile) and the isolated layer drivers.
func perLayer(untraced, traced []*pass, attr *attribution, costs map[string]layerCost) (map[string]float64, func()) {
	v := map[string]float64{}
	nT := float64(len(traced))
	tot := map[spanKey]*spanTotals{}
	for _, p := range traced {
		for k, t := range p.spanTotals {
			if tot[k] == nil {
				tot[k] = &spanTotals{}
			}
			tot[k].add(t)
		}
	}
	get := func(name string) *spanTotals { return getSpan(tot, "", name) }
	v["vm.fault_ms"] = float64(get("vm.fault").total) / 1e6 / nT
	v["vm.faults"] = float64(get("vm.fault").count) / nT
	v["vm.fault_share"] = div(float64(get("vm.fault").total), float64(get("harness.run").total))
	for _, b := range paperBenchmarks {
		v["vm.fault_share."+b] = div(float64(getSpan(tot, b, "vm.fault").total), float64(getSpan(tot, b, "harness.run").total))
	}
	v["pmap.walk_ms"] = float64(get("pmap.walk").total) / 1e6 / nT
	v["pmap.walks"] = float64(get("pmap.walk").count) / nT
	// Every pass simulates the same accesses (the digests agree).
	perPassAccesses := accesses(untraced[0].results)
	v["tlb.walks_per_kaccess"] = div(v["pmap.walks"]*1000, perPassAccesses)
	var runNS float64
	for _, p := range untraced {
		runNS += float64(p.phases.Run.Nanoseconds())
	}
	v["machine.host_ns_per_access"] = div(runNS, perPassAccesses*float64(len(untraced)))
	for _, n := range spanNames {
		v["self_ms."+n] = float64(get(n).selfNS) / 1e6 / nT
	}
	wallU := median(perPass(untraced, func(p *pass) float64 { return p.wall.Seconds() }))
	wallT := median(perPass(traced, func(p *pass) float64 { return p.wall.Seconds() }))
	v["trace.overhead_frac"] = wallT/wallU - 1
	spans := 0
	for k, t := range tot {
		if k.workload == "" {
			spans += t.count
		}
	}
	v["trace.spans"] = float64(spans) / nT
	for _, p := range hostPackages {
		v["host_share."+p] = attr.share(attr.innermost, p)
	}
	for name, c := range costs {
		v[name+"_ns"], v[name+"_bytes"], v[name+"_allocs"] = c.ns, c.bytes, c.allocs
	}
	phase := func(f func(harness.Phases) float64) float64 {
		return median(perPass(untraced, func(p *pass) float64 { return f(p.phases) }))
	}
	v["harness.boot_ms"] = phase(func(ph harness.Phases) float64 { return ms(ph.Boot) })
	v["harness.setup_ms"] = phase(func(ph harness.Phases) float64 { return ms(ph.Setup) })
	v["harness.restore_ms"] = phase(func(ph harness.Phases) float64 { return ms(ph.Restore) })
	v["harness.run_ms"] = phase(func(ph harness.Phases) float64 { return ms(ph.Run) })
	v["harness.collect_ms"] = phase(func(ph harness.Phases) float64 { return ms(ph.Collect) })
	v["runtime.gc_cycles"] = median(perPass(untraced, func(p *pass) float64 { return float64(p.host.gcCycles) }))
	v["runtime.gc_pause_ms"] = median(perPass(untraced, func(p *pass) float64 { return float64(p.host.gcPauseNS) / 1e6 }))

	served := map[string]float64{}
	if untraced[0].svc != nil {
		ratio := func(a, b uint64) float64 { return div(float64(a), float64(a+b)) }
		svcMedian := func(f func(*svcStats, *pass) float64) float64 {
			return median(perPass(untraced, func(p *pass) float64 { return f(p.svc, p) }))
		}
		v["service.cache_hit_ratio"] = svcMedian(func(s *svcStats, _ *pass) float64 { return ratio(s.snap.CacheHits, s.snap.CacheMisses) })
		v["service.snapshot_hit_ratio"] = svcMedian(func(s *svcStats, _ *pass) float64 { return ratio(s.snap.SnapshotHits, s.snap.SnapshotMisses) })
		v["service.singleflight_hits"] = svcMedian(func(s *svcStats, _ *pass) float64 { return float64(s.snap.SingleflightHits) })
		v["service.rejected"] = svcMedian(func(s *svcStats, _ *pass) float64 {
			return float64(s.snap.RejectedInvalid + s.snap.RejectedQueue + s.snap.RejectedDraining + s.snap.Timeouts)
		})
		var waits []float64
		for _, p := range untraced {
			waits = append(waits, p.queueWait...)
		}
		v["service.queue_wait_ms"] = median(waits)
		for _, k := range []string{"hit", "warm", "cold", "shared"} {
			served[k] = svcMedian(func(s *svcStats, p *pass) float64 { return div(float64(s.served[k]), float64(len(p.ops))) })
		}
		v["service.served_share.hit"], v["service.served_share.warm"], v["service.served_share.cold"] = served["hit"], served["warm"], served["cold"]
	}

	// Simulated counts of one pass: deterministic, so any pass will do.
	rs := untraced[0].results
	for _, c := range simCategories {
		var n uint64
		for _, r := range rs {
			n += r.CyclesBy[c]
		}
		v["sim.cycles_by."+c.String()] = float64(n)
	}
	for _, r := range rs {
		v["ctl.invocations"] += float64(r.Ctl.Invocations)
		v["ctl.page_flushes"] += float64(r.Ctl.PageFlushes)
		v["ctl.page_purges"] += float64(r.Ctl.PagePurges)
		v["pm.consistency_faults"] += float64(r.PM.ConsistencyFaults)
		v["fs.hits"] += float64(r.FS.Hits)
		v["fs.misses"] += float64(r.FS.Misses)
		v["disk.reads"] += float64(r.Disk.Reads)
		v["disk.writes"] += float64(r.Disk.Writes)
	}

	return v, func() {
		fmt.Printf("per-layer: %d untraced passes (wall %.4f s), %d traced passes (wall %.4f s), tracing overhead %+.1f%%\n",
			len(untraced), wallU, len(traced), wallT, 100*v["trace.overhead_frac"])
		fmt.Printf("  spans per traced pass (count, total ms, self ms):\n")
		for _, n := range spanNames {
			if t := tot[spanKey{"", n}]; t != nil {
				fmt.Printf("    %-16s %10.0f %12.3f %12.3f\n", n, float64(t.count)/nT, float64(t.total)/1e6/nT, float64(t.selfNS)/1e6/nT)
			}
		}
		fmt.Printf("  host CPU by package, %d distinct profile stacks (innermost repo frame | flat leaf frame):\n", attr.samples)
		for _, p := range hostPackages {
			fmt.Printf("    %-12s %6.1f%% | %6.1f%%\n", p, 100*attr.share(attr.innermost, p), 100*attr.share(attr.flat, p))
		}
		if len(served) > 0 {
			fmt.Printf("  requests served (share of a pass): hit %.3f  warm %.3f  cold %.3f  shared %.3f\n",
				served["hit"], served["warm"], served["cold"], served["shared"])
		}
		for _, s := range perLayerSpecs {
			fmt.Printf("  %-34s %16.4f %s\n", s.Name, v[s.Name], s.Unit)
		}
	}
}
