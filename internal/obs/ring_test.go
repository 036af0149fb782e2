package obs

import (
	"testing"
	"time"

	"scotch/internal/sim"
)

func at(ms int) sim.Time { return sim.Time(ms) * sim.Time(time.Millisecond) }

func TestRingWrap(t *testing.T) {
	r := NewRing()
	if r.Len() != 0 {
		t.Fatalf("fresh ring len=%d", r.Len())
	}
	if _, ok := r.Last(); ok {
		t.Fatal("empty ring reported a last sample")
	}
	const pushed = ringSize + 6
	for i := 0; i < pushed; i++ {
		r.Push(at(i), float64(i))
	}
	if r.Len() != ringSize {
		t.Fatalf("len after wrap = %d, want %d", r.Len(), ringSize)
	}
	pts := r.Points()
	for i, p := range pts {
		want := float64(6 + i)
		if p.V != want || p.T != at(6+i) {
			t.Fatalf("pts[%d] = %+v, want t=%v v=%g", i, p, at(6+i), want)
		}
	}
	if last, ok := r.Last(); !ok || last.V != pushed-1 {
		t.Fatalf("last = %+v ok=%v, want v=%d", last, ok, pushed-1)
	}
}

func TestRingNilSafe(t *testing.T) {
	var r *Ring
	r.Push(0, 1)
	if r.Len() != 0 || r.Points() != nil {
		t.Fatal("nil ring not inert")
	}
	if _, ok := r.Last(); ok {
		t.Fatal("nil ring reported a last sample")
	}
}

func TestSummarizeAndDownsample(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
	pts := []Point{{at(1), 4}, {at(2), 1}, {at(3), 7}, {at(4), 2}}
	s := Summarize(pts)
	if s.N != 4 || s.Last != 2 || s.Min != 1 || s.Max != 7 || s.Mean != 3.5 {
		t.Fatalf("summary = %+v", s)
	}

	var long []Point
	for i := 0; i < 100; i++ {
		long = append(long, Point{at(i), float64(i)})
	}
	ds := Downsample(long, 10)
	if len(ds) != 10 {
		t.Fatalf("downsampled to %d points, want 10", len(ds))
	}
	// Each group of 10 averages to its midpoint and ends on its last time.
	if ds[0].V != 4.5 || ds[0].T != at(9) || ds[9].V != 94.5 || ds[9].T != at(99) {
		t.Fatalf("downsample groups wrong: first=%+v last=%+v", ds[0], ds[9])
	}
	if got := Downsample(pts, 10); len(got) != len(pts) {
		t.Fatal("short series must pass through untouched")
	}
}

func TestSpark(t *testing.T) {
	if Spark(nil) != "" {
		t.Fatal("an empty series must render empty")
	}
	flat := Spark([]Point{{at(1), 5}, {at(2), 5}})
	if flat != "  " {
		t.Fatalf("flat series = %q, want two low cells", flat)
	}
	ramp := Spark([]Point{{at(1), 0}, {at(2), 1}})
	if ramp != " @" {
		t.Fatalf("ramp = %q, want low then high", ramp)
	}
	if long := Spark(make([]Point, 3*sparkWidth)); len(long) != sparkWidth {
		t.Fatalf("long series rendered %d cells, want %d", len(long), sparkWidth)
	}
}

func TestVerdictPath(t *testing.T) {
	if got := VerdictPath(nil); got != "healthy" {
		t.Fatalf("path = %q", got)
	}
	trs := []Transition{
		{At: at(1), From: Healthy, To: Burning},
		{At: at(2), From: Burning, To: Healthy},
	}
	if got := VerdictPath(trs); got != "healthy->burning->healthy" {
		t.Fatalf("path = %q", got)
	}
}
