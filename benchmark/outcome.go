package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// outcome is the result of running one workload once (timed or traced).
type outcome struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	Ops       uint64 `json:"ops"`
	Attempted uint64 `json:"ops_attempted"`
	Failed    uint64 `json:"ops_failed"`
	// Delivered is delivered_frac: the share of the workload's user-visible
	// deliveries that arrived (see registry.go for each workload's meaning).
	Delivered float64 `json:"delivered_frac"`
	WallS     float64 `json:"timed_wall_s"`
	CPUS      float64 `json:"timed_cpu_s"`
	// LatencySamples is the sample count behind latency_p50_us and
	// latency_p99_us.
	LatencySamples int `json:"latency_samples"`
	// SimDigest and SimSeconds are set by simulator workloads only.
	SimDigest  string  `json:"sim_digest,omitempty"`
	SimSeconds float64 `json:"sim_seconds,omitempty"`

	Checks []check `json:"checks"`
	// EndToEnd holds every end-to-end metric (timed run); PerLayer every
	// per-layer metric (traced run).
	EndToEnd map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	SpanFile string             `json:"span_file,omitempty"`
	// SpanStats is the traced run's per-span-name summary.
	SpanStats []spanRow `json:"span_stats,omitempty"`
}

// spanRow is one line of the traced run's self-time table.
type spanRow struct {
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.Checks = append(o.Checks, check{name, ok, fmt.Sprintf(format, args...)})
}

// correct reports whether every check passed.
func (o *outcome) correct() bool {
	for _, c := range o.Checks {
		if !c.OK {
			return false
		}
	}
	return len(o.Checks) > 0
}

// setTimed fills the end-to-end metrics every workload derives the same
// way from its timed section.
func (o *outcome) setTimed(sec *section, opsPerS, setupS, heapMB float64, lat latency) {
	o.WallS, o.CPUS = sec.wall, sec.cpu
	o.LatencySamples = lat.n
	ops := float64(o.Ops)
	o.EndToEnd = map[string]float64{
		mSetup:     setupS,
		mOps:       opsPerS,
		mAllocs:    float64(sec.mallocs) / ops,
		mBytes:     float64(sec.heap) / ops,
		mHeap:      heapMB,
		mLatP50:    lat.p50us,
		mLatP99:    lat.p99us,
		mDelivered: o.Delivered,
	}
}

// latency is the summary of a run's latency samples.
type latency struct {
	p50us, p99us float64
	n            int
}

// latencyOf summarises sorted samples; perUs is how many sample units
// make a microsecond.
func latencyOf(sorted []float64, perUs float64) latency {
	return latency{quantile(sorted, 0.50) / perUs, quantile(sorted, 0.99) / perUs, len(sorted)}
}

func spanRows(stats map[string]*spanStat) []spanRow {
	rows := make([]spanRow, 0, len(stats))
	for _, s := range stats {
		rows = append(rows, spanRow{s.Name, s.Layer, s.Count, float64(s.TotalNs) / 1e6, float64(s.SelfNs) / 1e6})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// repeatSetup builds a rig n times and returns the last rig with the
// lower-quartile build time (noise on the shared box only ever adds to a
// build). Before each build the previous rig is discarded and the heap
// collected, so one build's garbage is not charged to the next.
func repeatSetup[T any](n int, build func() (T, error), discard func(T)) (T, float64, error) {
	var rig T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(rig)
		}
		var zero T
		rig = zero
		runtime.GC()
		t0 := time.Now()
		r, err := build()
		if err != nil {
			return zero, 0, err
		}
		rig = r
		times = append(times, time.Since(t0).Seconds())
	}
	return rig, quantileOf(times, 0.25), nil
}
