package main

import (
	"math"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuSeconds returns the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// goStats is a snapshot of the Go runtime counters the benchmark reports.
type goStats struct {
	allocBytes, gcCycles uint64
	gcCPU                float64
}

var goStatNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var g goStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[2].Value.Float64()
	}
	return g
}

// sub returns the counters accumulated since before.
func (g goStats) sub(before goStats) goStats {
	return goStats{g.allocBytes - before.allocBytes, g.gcCycles - before.gcCycles, g.gcCPU - before.gcCPU}
}

// window measures wall and CPU time of a timed part.
type window struct {
	start time.Time
	cpu   float64
}

func openWindow() window {
	return window{start: time.Now(), cpu: cpuSeconds()}
}

func (w window) wall() float64 { return time.Since(w.start).Seconds() }
func (w window) cpuUsed() float64 {
	return cpuSeconds() - w.cpu
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantile returns the highest of p99, p95 and p90 that has at least ten
// samples beyond it, with its label, or ok=false when even p90 has fewer.
func tailQuantile(sorted []float64) (label string, v float64, ok bool) {
	for _, c := range []struct {
		label string
		q     float64
	}{{"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}} {
		if float64(len(sorted))*(1-c.q) >= 10 {
			return c.label, quantile(sorted, c.q), true
		}
	}
	return "", 0, false
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// settle collects garbage and returns freed memory to the OS, so one phase's
// heap does not count against the next.
func settle() { debug.FreeOSMemory() }
