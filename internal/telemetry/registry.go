package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is a goroutine-safe table of named series evaluated at scrape
// time, written in Prometheus text exposition format. Each series is a
// counter or gauge function over state its subsystem already keeps, so
// registering costs nothing on the instrumented path. Series names may
// carry a label block built by Labels (`name{label="v"}`); series of the
// same family share one # TYPE line. A key is stored and written exactly
// as registered. A nil registry ignores every registration and writes
// nothing.
type Registry struct {
	mu         sync.RWMutex
	counterFns map[string]func() uint64
	gaugeFns   map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counterFns: make(map[string]func() uint64),
		gaugeFns:   make(map[string]func() float64),
	}
}

// EscapeLabelValue escapes a label value per the Prometheus text
// exposition format: backslash, double quote, and newline.
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Labels formats key/value pairs as a Prometheus label block, e.g.
// Labels("dpid", "7") == `{dpid="7"}`. Values are escaped per the text
// exposition format (see EscapeLabelValue). An empty argument list
// yields "".
func Labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// CounterFunc registers a monotonic counter evaluated at scrape time, for
// subsystems that already keep their own atomic counters. The function must
// be safe to call from the scraping goroutine.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counterFns[name] = fn
}

// GaugeFunc registers a gauge evaluated at scrape time. The function must
// be safe to call from the scraping goroutine; simulation-side bindings
// are scraped only when their engine is idle.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// family strips the label block from a series name.
func family(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// WritePrometheus scrapes every series in Prometheus text exposition
// format, sorted by series name so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type series struct {
		name  string
		typ   string
		value string
	}
	r.mu.RLock()
	all := make([]series, 0, len(r.counterFns)+len(r.gaugeFns))
	for name, fn := range r.counterFns {
		all = append(all, series{name, "counter", strconv.FormatUint(fn(), 10)})
	}
	for name, fn := range r.gaugeFns {
		all = append(all, series{name, "gauge", fmt.Sprint(fn())})
	}
	r.mu.RUnlock()

	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	seenType := make(map[string]bool)
	for _, s := range all {
		fam := family(s.name)
		if !seenType[fam] {
			seenType[fam] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, s.typ); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", s.name, s.value); err != nil {
			return err
		}
	}
	return nil
}
