package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

func TestEscapeUnescapeLabelValue(t *testing.T) {
	cases := []string{
		"plain",
		`back\slash`,
		`quo"te`,
		"new\nline",
		`all\"three` + "\n",
		"unicode-café-日本",
		"",
	}
	for _, v := range cases {
		esc := EscapeLabelValue(v)
		if strings.ContainsRune(esc, '\n') {
			t.Fatalf("escaped value %q still contains a raw newline", esc)
		}
		if got := UnescapeLabelValue(esc); got != v {
			t.Fatalf("round trip of %q: escaped %q, unescaped %q", v, esc, got)
		}
	}
	// Lenient on unknown escapes (legacy Go-quoted values).
	if got := UnescapeLabelValue(`a\tb`); got != `a\tb` {
		t.Fatalf("unknown escape mangled: %q", got)
	}
}

func TestParseSeriesRoundTrip(t *testing.T) {
	fam, labels, err := ParseSeries(`fam{b="2",a="x\"y,z"}`)
	if err != nil {
		t.Fatal(err)
	}
	if fam != "fam" || len(labels) != 2 {
		t.Fatalf("fam=%q labels=%v", fam, labels)
	}
	if labels[1].Name != "a" || labels[1].Value != `x"y,z` {
		t.Fatalf("label a = %+v", labels[1])
	}
	// FormatSeries sorts, so the canonical form puts a first.
	if got := FormatSeries(fam, labels); got != `fam{a="x\"y,z",b="2"}` {
		t.Fatalf("canonical = %q", got)
	}
	// No label block.
	fam, labels, err = ParseSeries("bare_series")
	if err != nil || fam != "bare_series" || labels != nil {
		t.Fatalf("bare: %q %v %v", fam, labels, err)
	}
}

func TestParseSeriesMalformed(t *testing.T) {
	for _, s := range []string{
		`fam{`, `fam{a=1}`, `fam{a="1}`, `fam{a="1" b="2"}`, `fam{="1"}`,
	} {
		if _, _, err := ParseSeries(s); err == nil {
			t.Errorf("ParseSeries(%q) accepted malformed input", s)
		}
	}
}

// TestRegistryCanonicalAlias pins the compat behavior: the same
// family+labels spelled with a different label order (or legacy escaping)
// resolve to one series, and the exposition emits it once.
func TestRegistryCanonicalAlias(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc(`scotch_alias_total{x="1",a="2"}`, func() uint64 { return 1 })
	r.CounterFunc(`scotch_alias_total{a="2",x="1"}`, func() uint64 { return 3 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "scotch_alias_total{"); n != 1 {
		t.Fatalf("canonical series emitted %d times:\n%s", n, buf.String())
	}
	if !strings.Contains(buf.String(), `scotch_alias_total{a="2",x="1"} 3`+"\n") {
		t.Fatalf("missing canonical sample:\n%s", buf.String())
	}
}

// TestExpositionRoundTrip writes a registry with hostile label values and
// parses the scrape back: every family, label pair, and value must
// survive intact.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	hostile := `ten"ant\one` + "\nline2"
	r.CounterFunc("scotch_rt_total"+Labels("tenant", hostile), func() uint64 { return 7 })
	r.GaugeFunc("scotch_rt_depth"+Labels("dpid", "9", "role", "primary"), func() float64 { return 2.5 })
	r.GaugeFunc("scotch_rt_depth"+Labels("dpid", "10", "role", "backup"), func() float64 { return 0.125 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse of own exposition failed: %v\n%s", err, buf.String())
	}

	byKey := map[string]Sample{}
	for _, s := range samples {
		byKey[FormatSeries(s.Family, s.Labels)] = s
	}
	c, ok := byKey[FormatSeries("scotch_rt_total", []Label{{"tenant", hostile}})]
	if !ok {
		t.Fatalf("hostile-label counter lost in round trip:\n%s", buf.String())
	}
	if c.Value != 7 || c.Label("tenant") != hostile {
		t.Fatalf("counter mangled: %+v", c)
	}
	g, ok := byKey[`scotch_rt_depth{dpid="9",role="primary"}`]
	if !ok || g.Value != 2.5 {
		t.Fatalf("gauge lost or mangled: %+v", g)
	}
	if b, ok := byKey[`scotch_rt_depth{dpid="10",role="backup"}`]; !ok || b.Value != 0.125 || b.Label("role") != "backup" {
		t.Fatalf("second gauge lost or mangled: %+v", b)
	}
	if len(samples) != 3 {
		t.Fatalf("%d samples, want 3:\n%s", len(samples), buf.String())
	}

	// A second write parses to the identical sample set (determinism).
	var buf2 bytes.Buffer
	r.WritePrometheus(&buf2)
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("exposition not deterministic")
	}
}

// TestParseExpositionErrors covers the parser's failure paths.
func TestParseExpositionErrors(t *testing.T) {
	for _, in := range []string{
		"series_without_value",
		"series notanumber",
		`fam{a="1" 3`,
	} {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("ParseExposition(%q) accepted malformed input", in)
		}
	}
	// Comments and blank lines are skipped.
	s, err := ParseExposition(strings.NewReader("# TYPE x counter\n\nx 1\n"))
	if err != nil || len(s) != 1 || s[0].Family != "x" || s[0].Value != 1 {
		t.Fatalf("got %v, %v", s, err)
	}
}

// Sample is one parsed exposition sample: a family, its label pairs
// (unescaped, in exposition order), and the sample value.
type Sample struct {
	Family string
	Labels []Label
	Value  float64
}

// Label returns the value of the named label ("" when absent).
func (s Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// ParseExposition parses the subset of the Prometheus text format that
// WritePrometheus emits — `# TYPE` comments (skipped) and
// `series value` sample lines — returning the samples in input order.
func ParseExposition(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// The series may contain spaces inside quoted label values; the
		// value is everything after the last space outside the block.
		// Values never contain '}', so the last '}' ends the block even
		// when a quoted label value contains one.
		sep := -1
		if end := strings.LastIndexByte(text, '}'); end >= 0 {
			rest := text[end+1:]
			j := strings.LastIndexByte(rest, ' ')
			if j >= 0 {
				sep = end + 1 + j
			}
		} else {
			sep = strings.LastIndexByte(text, ' ')
		}
		if sep < 0 {
			return nil, fmt.Errorf("telemetry: line %d: no value in %q", line, text)
		}
		series := strings.TrimSpace(text[:sep])
		v, err := strconv.ParseFloat(strings.TrimSpace(text[sep+1:]), 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: bad value: %v", line, err)
		}
		fam, labels, err := ParseSeries(series)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %v", line, err)
		}
		out = append(out, Sample{Family: fam, Labels: labels, Value: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
