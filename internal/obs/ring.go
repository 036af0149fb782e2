package obs

import (
	"strings"

	"scotch/internal/sim"
)

// Point is one (simulation time, value) sample of a ring series.
type Point struct {
	T sim.Time `json:"t"`
	V float64  `json:"v"`
}

// ring is a fixed-capacity buffer: pushes past capacity overwrite the
// oldest element. Ring and countsRing share its wrap logic.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int
}

// push appends v, evicting the oldest element once full.
func (r *ring[T]) push(v T) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = v
		r.n++
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
}

// at returns the i-th stored element in push order (0 = oldest).
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

// Ring is a fixed-capacity time-series buffer: pushes past capacity
// overwrite the oldest sample. It is the observatory's storage primitive —
// bounded memory no matter how long a run samples for. Methods are not
// internally synchronized; the Observatory serializes access under its
// own lock.
type Ring struct{ ring[Point] }

// NewRing returns a ring holding at most capacity samples (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{ring[Point]{buf: make([]Point, capacity)}}
}

// Push appends a sample, evicting the oldest once full. Nil-safe.
func (r *Ring) Push(t sim.Time, v float64) {
	if r == nil {
		return
	}
	r.push(Point{T: t, V: v})
}

// Len returns the number of stored samples (0 for nil).
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Cap returns the ring's capacity (0 for nil).
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// At returns the i-th stored sample in chronological order (0 = oldest).
func (r *Ring) At(i int) Point { return r.at(i) }

// Last returns the newest sample, or false when empty. Nil-safe.
func (r *Ring) Last() (Point, bool) {
	if r.Len() == 0 {
		return Point{}, false
	}
	return r.At(r.n - 1), true
}

// Points returns a chronological copy of the stored samples. Nil-safe.
func (r *Ring) Points() []Point {
	if r.Len() == 0 {
		return nil
	}
	out := make([]Point, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.At(i)
	}
	return out
}

// Since returns a chronological copy of the samples with T >= t. Nil-safe.
func (r *Ring) Since(t sim.Time) []Point {
	if r.Len() == 0 {
		return nil
	}
	// Samples are pushed in time order; binary search would work, but the
	// ring is small and a scan keeps the wrap arithmetic obvious.
	var out []Point
	for i := 0; i < r.n; i++ {
		if p := r.At(i); p.T >= t {
			out = append(out, p)
		}
	}
	return out
}

// Summary aggregates a point slice: last/min/max/mean over the values.
type Summary struct {
	N    int     `json:"n"`
	Last float64 `json:"last"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// Summarize computes a Summary over pts (zero value for an empty slice).
func Summarize(pts []Point) Summary {
	if len(pts) == 0 {
		return Summary{}
	}
	s := Summary{N: len(pts), Last: pts[len(pts)-1].V, Min: pts[0].V, Max: pts[0].V}
	var sum float64
	for _, p := range pts {
		if p.V < s.Min {
			s.Min = p.V
		}
		if p.V > s.Max {
			s.Max = p.V
		}
		sum += p.V
	}
	s.Mean = sum / float64(len(pts))
	return s
}

// Downsample reduces pts to at most n points by averaging equal-width
// groups; each output point carries the group's last timestamp. It keeps
// digest JSON bounded for long runs while preserving the load shape.
func Downsample(pts []Point, n int) []Point {
	if n <= 0 || len(pts) <= n {
		return pts
	}
	out := make([]Point, 0, n)
	for g := 0; g < n; g++ {
		lo := g * len(pts) / n
		hi := (g + 1) * len(pts) / n
		if hi <= lo {
			continue
		}
		var sum float64
		for _, p := range pts[lo:hi] {
			sum += p.V
		}
		out = append(out, Point{T: pts[hi-1].T, V: sum / float64(hi-lo)})
	}
	return out
}

// sparkLevels are the ASCII intensity ramp used by Spark, lowest to
// highest. Pure ASCII so digests render anywhere (CI logs, plain
// terminals).
const sparkLevels = " .:-=+*#%@"

// Spark renders pts as a fixed-width ASCII sparkline scaled between the
// series' min and max (a flat series renders at the lowest level).
func Spark(pts []Point, width int) string {
	if len(pts) == 0 || width <= 0 {
		return ""
	}
	pts = Downsample(pts, width)
	s := Summarize(pts)
	var b strings.Builder
	for _, p := range pts {
		level := 0
		if s.Max > s.Min {
			level = int((p.V - s.Min) / (s.Max - s.Min) * float64(len(sparkLevels)-1))
			if level >= len(sparkLevels) {
				level = len(sparkLevels) - 1
			}
		}
		b.WriteByte(sparkLevels[level])
	}
	return b.String()
}
