package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// memSnap is the allocation state at one instant.
type memSnap struct{ mallocs, bytes uint64 }

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.Mallocs, m.TotalAlloc}
}

// retainedHeapMB forces a collection and returns the live heap in MB
// (10^6 bytes). Whatever the caller still references is what is counted.
func retainedHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// section measures one timed section: host wall and CPU seconds plus
// allocation deltas.
type section struct {
	wall, cpu     float64
	mallocs, heap uint64

	t0   time.Time
	cpu0 float64
	mem0 memSnap
}

func beginSection() *section {
	return &section{mem0: readMem(), cpu0: cpuSeconds(), t0: time.Now()}
}

func (s *section) end() {
	s.wall = time.Since(s.t0).Seconds()
	s.cpu = cpuSeconds() - s.cpu0
	m := readMem()
	s.mallocs = m.mallocs - s.mem0.mallocs
	s.heap = m.bytes - s.mem0.bytes
}

// quantile returns the q-quantile of sorted samples by linear
// interpolation between closest ranks; NaN when there are none.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// The reference box is a shared VM: other tenants slow it by 10-40 % for
// seconds to minutes at a time, and never speed it up. Every workload's
// timed section is therefore stationary and cut into steps (one simulated
// second; 100 ms or 1 s of live traffic), and host-time metrics are taken
// from the steps the box left alone rather than from the mean or the
// median step: with a bursty CPU hog on both cores the 90th-percentile
// step rate of live-packetin fell 16 % where the median fell 30 %, and the
// 10th percentile of its per-step median latency did not move at all
// (15.9-16.8 us over nine runs, quiet or not, against 16.6-25.9 us for the
// median step). A real slow-down moves every step and shows all the same.

// quietRate is the throughput estimator: the 90th-percentile step rate.
func quietRate(stepRates []float64) float64 { return quantileOf(stepRates, 0.90) }

// quietLatency is the latency estimator: the 10th percentile, over steps,
// of a per-step latency quantile.
func quietLatency(stepQuantiles []float64) float64 { return quantileOf(stepQuantiles, 0.10) }

// quantileOf sorts a copy of xs and returns its q-quantile.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }
