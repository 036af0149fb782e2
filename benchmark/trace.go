package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval. Spans are recorded only by benchmark code
// wrapped around calls into a layer; the packages under test carry none.
type span struct {
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// maxSpans caps the in-memory span buffer; spans beyond it are counted as
// dropped, not recorded.
const maxSpans = 1 << 20

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer is the disabled tracer: call sites test for nil, so the
// timed run pays one pointer comparison.
type tracer struct {
	workload string
	epoch    time.Time
	nextID   atomic.Uint64
	// root is the enclosing sim.run_until span while a simulator step
	// runs; the simulator is single-threaded, so a plain field suffices.
	root uint64

	mu      sync.Mutex
	spans   []span
	dropped uint64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// now returns nanoseconds since the tracer was created.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// add records a finished span.
func (t *tracer) add(id, parent uint64, name, layer string, start, end int64) {
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
	} else {
		t.spans = append(t.spans, span{id, parent, name, layer, t.workload, start, end})
	}
	t.mu.Unlock()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name      string
	Layer     string
	Count     int
	TotalNs   int64
	SelfNs    int64 // total minus the part covered by child spans
	durations []float64
}

func (s *spanStat) meanNs() float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	return float64(s.TotalNs) / float64(s.Count)
}

// quantileNs returns the q-quantile of the span durations, 0 with none.
func (s *spanStat) quantileNs(q float64) float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	sort.Float64s(s.durations)
	return quantile(s.durations, q)
}

// stats groups spans by name and computes self time: a span's duration
// minus the duration of the spans that name it as parent.
func (t *tracer) stats() map[string]*spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[uint64]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*spanStat)
	for i := range t.spans {
		s := &t.spans[i]
		st := out[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name, Layer: s.Layer}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.TotalNs += d
		st.SelfNs += d - child[s.ID]
		st.durations = append(st.durations, float64(d))
	}
	return out
}

func (t *tracer) counts() (recorded int, dropped uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans), t.dropped
}

// write streams the spans to path as one JSON array.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	w.WriteString("[\n")
	for i := range t.spans {
		if i > 0 {
			w.WriteString(",")
		}
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	w.WriteString("]\n")
	return w.Flush()
}
