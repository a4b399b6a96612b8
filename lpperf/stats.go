package main

import (
	"math"
	"slices"
	"syscall"
	"time"
)

// quantileNs returns the exact nearest-rank q-quantile of samples
// (sorted in place) in microseconds, 0 when there are none.
func quantileUs(samples []uint32, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if !slices.IsSorted(samples) {
		slices.Sort(samples)
	}
	r := int(math.Ceil(q*float64(len(samples)))) - 1
	if r < 0 {
		r = 0
	}
	return float64(samples[r]) / 1e3
}

// median returns the median of xs (0 when empty); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// window accumulates timed load windows: wall time, CPU time and the
// ops that succeeded in them.
type window struct {
	wall time.Duration
	cpu  time.Duration
	ok   uint64
}

// timeWindow runs f and adds its wall and CPU time to w.
func (w *window) timeWindow(f func()) {
	c0, t0 := cpuTime(), time.Now()
	f()
	w.wall += time.Since(t0)
	w.cpu += cpuTime() - c0
}

func (w *window) goodput() float64 {
	if w.wall <= 0 {
		return 0
	}
	return float64(w.ok) / w.wall.Seconds()
}

func (w *window) cpuUsPerOp() float64 {
	if w.ok == 0 {
		return 0
	}
	return float64(w.cpu.Nanoseconds()) / 1e3 / float64(w.ok)
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// minChunk is the smallest final chunk whose quantiles are kept: a
// p99 needs ten samples beyond it.
const minChunk = 1000

// latStats keeps exact latency order statistics per chunk of
// consecutive samples: each full chunk contributes its own p50, p95
// and p99 (nearest rank), and a run reports the median over its
// chunks, so a burst of host noise moves a few chunks rather than the
// whole figure. It also keeps the overall sum and count for means.
type latStats struct {
	chunk            int
	buf              []uint32
	p50s, p95s, p99s []float64
	sumNs            float64
	n                uint64
}

func newLatStats(chunk int) *latStats {
	return &latStats{chunk: chunk, buf: make([]uint32, 0, chunk)}
}

func (l *latStats) add(ns uint32) {
	l.buf = append(l.buf, ns)
	l.sumNs += float64(ns)
	l.n++
	if len(l.buf) == l.chunk {
		l.closeChunk()
	}
}

// closeChunk summarizes the buffered samples. A short final chunk
// counts only when it is large enough for a p99, or when it is the
// only chunk there is.
func (l *latStats) closeChunk() {
	if len(l.buf) >= minChunk || (len(l.buf) > 0 && len(l.p50s) == 0) {
		l.p50s = append(l.p50s, quantileUs(l.buf, 0.50))
		l.p95s = append(l.p95s, quantileUs(l.buf, 0.95))
		l.p99s = append(l.p99s, quantileUs(l.buf, 0.99))
	}
	l.buf = l.buf[:0]
}

func (l *latStats) merge(o *latStats) {
	o.closeChunk()
	l.p50s = append(l.p50s, o.p50s...)
	l.p95s = append(l.p95s, o.p95s...)
	l.p99s = append(l.p99s, o.p99s...)
	l.sumNs += o.sumNs
	l.n += o.n
}

// p50, p95 and p99 return the medians over chunks, in microseconds.
func (l *latStats) p50() float64 { return median(append([]float64(nil), l.p50s...)) }
func (l *latStats) p95() float64 { return median(append([]float64(nil), l.p95s...)) }
func (l *latStats) p99() float64 { return median(append([]float64(nil), l.p99s...)) }

func (l *latStats) meanUs() float64 {
	if l.n == 0 {
		return 0
	}
	return l.sumNs / float64(l.n) / 1e3
}
