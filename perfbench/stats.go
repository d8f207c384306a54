package main

import (
	"math"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs, and how many samples lie strictly beyond that rank.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// hostCounters is a point-in-time read of the Go runtime's cumulative
// allocation and GC counters; passes report the difference of two reads.
type hostCounters struct {
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	gcPauseNS  int64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readHost() hostCounters {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	var gs debug.GCStats
	debug.ReadGCStats(&gs)
	return hostCounters{
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcPauseNS:  int64(gs.PauseTotal),
	}
}

func (h hostCounters) sub(o hostCounters) hostCounters {
	return hostCounters{
		allocBytes: h.allocBytes - o.allocBytes,
		allocObjs:  h.allocObjs - o.allocObjs,
		gcCycles:   h.gcCycles - o.gcCycles,
		gcPauseNS:  h.gcPauseNS - o.gcPauseNS,
	}
}

func (h hostCounters) add(o hostCounters) hostCounters {
	return hostCounters{
		allocBytes: h.allocBytes + o.allocBytes,
		allocObjs:  h.allocObjs + o.allocObjs,
		gcCycles:   h.gcCycles + o.gcCycles,
		gcPauseNS:  h.gcPauseNS + o.gcPauseNS,
	}
}

// peakRSSMB is the process's resident-set high-water mark. Each
// benchmark invocation runs one workload in its own process, so this is
// the high-water mark of that workload's passes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
