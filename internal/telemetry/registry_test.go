package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	var n atomic.Uint64
	r.CounterFunc("scotch_test_total", n.Load)
	depth := 2.5
	r.GaugeFunc("scotch_test_depth", func() float64 { return depth })
	n.Add(5)
	depth = 4
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "# TYPE scotch_test_depth gauge\nscotch_test_depth 4\n# TYPE scotch_test_total counter\nscotch_test_total 5\n"; buf.String() != want {
		t.Fatalf("scrape = %q, want %q", buf.String(), want)
	}
	// Registering a name again replaces its function.
	r.CounterFunc("scotch_test_total", func() uint64 { return 9 })
	buf.Reset()
	r.WritePrometheus(&buf)
	if !strings.HasSuffix(buf.String(), "counter\nscotch_test_total 9\n") {
		t.Fatalf("re-registration did not replace the series:\n%s", buf.String())
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	var r *Registry
	r.CounterFunc("c", func() uint64 { return 1 })
	r.GaugeFunc("f", func() float64 { return 1 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q, %v", buf.String(), err)
	}
	// A nil function registers nothing.
	live := NewRegistry()
	live.CounterFunc("c", nil)
	live.GaugeFunc("g", nil)
	if err := live.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil functions wrote %q, %v", buf.String(), err)
	}
}

func TestLabels(t *testing.T) {
	if got := Labels(); got != "" {
		t.Fatalf("Labels() = %q", got)
	}
	if got := Labels("dpid", "7"); got != `{dpid="7"}` {
		t.Fatalf("Labels = %q", got)
	}
	if got := Labels("a", "1", "b", `x"y`); got != `{a="1",b="x\"y"}` {
		t.Fatalf("Labels = %q", got)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc(`scotch_pkt_total{dpid="1"}`, func() uint64 { return 10 })
	r.CounterFunc(`scotch_pkt_total{dpid="2"}`, func() uint64 { return 20 })
	r.GaugeFunc("scotch_depth", func() float64 { return 3 })
	r.GaugeFunc("scotch_live", func() float64 { return 42.5 })
	r.CounterFunc("scotch_ext_total", func() uint64 { return 99 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	// Sorted by series, one TYPE line per family even with several
	// labelled series.
	want := `# TYPE scotch_depth gauge
scotch_depth 3
# TYPE scotch_ext_total counter
scotch_ext_total 99
# TYPE scotch_live gauge
scotch_live 42.5
# TYPE scotch_pkt_total counter
scotch_pkt_total{dpid="1"} 10
scotch_pkt_total{dpid="2"} 20
`
	if buf.String() != want {
		t.Fatalf("scrape:\n%s\nwant:\n%s", buf.String(), want)
	}
	// Deterministic: a second scrape is byte-identical.
	var buf2 bytes.Buffer
	r.WritePrometheus(&buf2)
	if buf.String() != buf2.String() {
		t.Fatal("scrape output not deterministic")
	}
}

// TestRegistryConcurrent registers and scrapes from many goroutines while
// the counted state moves; run with -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var total atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.CounterFunc("scotch_shared_total", total.Load)
			r.GaugeFunc(fmt.Sprintf(`scotch_worker_up{w="%d"}`, w), func() float64 { return 1 })
			for i := 0; i < 1000; i++ {
				total.Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "scotch_shared_total 8000\n") {
		t.Fatalf("counter after the workers finished:\n%s", buf.String())
	}
	if n := strings.Count(buf.String(), "scotch_worker_up{"); n != 8 {
		t.Fatalf("%d worker gauges, want 8:\n%s", n, buf.String())
	}
}
