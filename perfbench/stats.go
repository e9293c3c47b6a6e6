package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// goStats samples the Go runtime counters the per-layer go.* metrics are
// built from.
type goStats struct {
	allocs, bytes  uint64
	heap           uint64
	gcCPU, busyCPU float64
}

// goSampler reads goStats into retained sample storage, so sampling inside
// the traced loop allocates nothing.
type goSampler []metrics.Sample

func newGoSampler() goSampler {
	names := []string{
		"/gc/heap/allocs:objects",
		"/gc/heap/allocs:bytes",
		"/memory/classes/heap/objects:bytes",
		"/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/total:cpu-seconds",
		"/cpu/classes/idle:cpu-seconds",
	}
	s := make(goSampler, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	return s
}

func (s goSampler) read() goStats {
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{allocs: u(0), bytes: u(1), heap: u(2), gcCPU: f(3), busyCPU: f(4) - f(5)}
}
