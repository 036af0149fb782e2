package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Experiment is one reproducible measurement.
type Experiment struct {
	ID    string
	Title string
	// Run executes the experiment, writing its result table to w; every
	// rig it builds attaches p's instruments (nil p: none).
	Run func(w io.Writer, p *Probes) error
}

var registry = map[string]Experiment{}
var order []string

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
	order = append(order, e.ID)
}

// All returns every experiment in registration order.
func All() []Experiment {
	out := make([]Experiment, 0, len(order))
	for _, id := range order {
		out = append(out, registry[id])
	}
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// table is a small column-aligned printer for experiment output.
type table struct {
	w   *tabwriter.Writer
	out io.Writer
}

func newTable(w io.Writer, headers ...string) *table {
	t := &table{w: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0), out: w}
	for i, h := range headers {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		fmt.Fprint(t.w, h)
	}
	fmt.Fprintln(t.w)
	return t
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		switch v := c.(type) {
		case float64:
			fmt.Fprintf(t.w, "%.3f", v)
		default:
			fmt.Fprintf(t.w, "%v", v)
		}
	}
	fmt.Fprintln(t.w)
}

func (t *table) flush() { t.w.Flush() }

func banner(w io.Writer, e Experiment) {
	fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
}
