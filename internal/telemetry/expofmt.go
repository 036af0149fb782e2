package telemetry

// Prometheus text exposition encoding: real label pairs with proper value
// escaping.
//
// Historically the registry treated a full series string like
// `family{tenant="x"}` as an opaque metric *name*: label values were
// Go-quoted (strconv-style \u escapes a Prometheus scraper reads
// literally) and two registrations differing only in label order produced
// two distinct series. This file makes the label block structural — every
// series key is canonicalized on lookup (labels sorted by name, values
// escaped per the exposition format's three escapes: \\ , \" and \n) — so
// the legacy string-keyed API keeps working as a compat alias for the
// same underlying series.

import (
	"fmt"
	"sort"
	"strings"
)

// Label is one Prometheus label pair. Values are stored unescaped.
type Label struct {
	Name  string
	Value string
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

// UnescapeLabelValue reverses EscapeLabelValue. Unknown escape sequences
// are kept literally (lenient, for legacy Go-quoted values).
func UnescapeLabelValue(v string) string {
	if !strings.ContainsRune(v, '\\') {
		return v
	}
	var b strings.Builder
	b.Grow(len(v))
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c != '\\' || i+1 >= len(v) {
			b.WriteByte(c)
			continue
		}
		i++
		switch v[i] {
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case 'n':
			b.WriteByte('\n')
		default:
			b.WriteByte('\\')
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// ParseSeries splits a series key into its family and label pairs, e.g.
// `fam{a="1",b="2"}` into ("fam", [{a 1} {b 2}]). Label values are
// unescaped. A key without a label block returns nil labels.
func ParseSeries(series string) (fam string, labels []Label, err error) {
	i := strings.IndexByte(series, '{')
	if i < 0 {
		return series, nil, nil
	}
	fam = series[:i]
	block := series[i:]
	if len(block) < 2 || block[len(block)-1] != '}' {
		return "", nil, fmt.Errorf("telemetry: malformed label block in %q", series)
	}
	body := block[1 : len(block)-1]
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq <= 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			return "", nil, fmt.Errorf("telemetry: malformed label pair in %q", series)
		}
		name := strings.TrimSpace(body[:eq])
		rest := body[eq+2:] // past the opening quote
		// Scan to the closing quote, honoring backslash escapes.
		end := -1
		for j := 0; j < len(rest); j++ {
			if rest[j] == '\\' {
				j++
				continue
			}
			if rest[j] == '"' {
				end = j
				break
			}
		}
		if end < 0 {
			return "", nil, fmt.Errorf("telemetry: unterminated label value in %q", series)
		}
		labels = append(labels, Label{Name: name, Value: UnescapeLabelValue(rest[:end])})
		body = rest[end+1:]
		if strings.HasPrefix(body, ",") {
			body = body[1:]
		} else if len(body) > 0 {
			return "", nil, fmt.Errorf("telemetry: malformed label separator in %q", series)
		}
	}
	return fam, labels, nil
}

// FormatSeries renders a canonical series key: family plus labels sorted
// by name, values escaped. It is the inverse of ParseSeries.
func FormatSeries(fam string, labels []Label) string {
	if len(labels) == 0 {
		return fam
	}
	sorted := append([]Label(nil), labels...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	b.WriteString(fam)
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// canonicalKey normalizes a series key so that differently ordered or
// differently escaped spellings of the same family+labels alias one
// series. Malformed keys are kept verbatim (legacy compat).
func canonicalKey(series string) string {
	if !strings.ContainsRune(series, '{') {
		return series
	}
	fam, labels, err := ParseSeries(series)
	if err != nil {
		return series
	}
	return FormatSeries(fam, labels)
}
