package workload

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// FuzzTraceCSV drives the CSV trace parser with arbitrary input, seeded
// from testdata/fuzz/FuzzTraceCSV plus the inline seeds below. Properties:
//
//  1. ParseTraceCSV never panics (the fuzz engine catches panics itself).
//  2. Anything that parses must re-encode successfully.
//  3. Re-encoding is canonical: parse(write(parse(x))) == parse(x), and a
//     second write produces the identical bytes.
func FuzzTraceCSV(f *testing.F) {
	f.Add("0.5,10.0.0.1,10.0.1.1,4000,web")
	f.Add("2,10.0.0.2,10.0.1.1,500")
	f.Add("# comment\n\n0.000000250,172.16.0.9,10.0.1.2,0,batch\n")
	f.Add(" 1.5 , 10.0.0.1 , 10.0.1.1 , 7 ")
	f.Add("1000000.000000000,255.255.255.255,0.0.0.0,2147483647,t")
	f.Add("1e3,10.0.0.1,10.0.0.2,5")
	f.Add("1.0000000001,10.0.0.1,10.0.0.2,5")
	f.Add("1,10.0.0.1,10.0.0.2,5,a,b")
	f.Add(strings.Repeat("9", 30) + ",1.2.3.4,5.6.7.8,1")
	f.Fuzz(func(t *testing.T, data string) {
		events, err := ParseTraceCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteTraceCSV(&first, events); err != nil {
			t.Fatalf("parsed events do not re-encode: %v\n%q", err, data)
		}
		events2, err := ParseTraceCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("canonical encoding does not parse: %v\n%q", err, first.String())
		}
		if len(events2) != len(events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(events), len(events2))
		}
		for i := range events {
			if events2[i] != events[i] {
				t.Fatalf("event %d changed across round trip:\n%+v\n%+v", i, events[i], events2[i])
			}
		}
		var second bytes.Buffer
		if err := WriteTraceCSV(&second, events2); err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("CSV encoding is not a fixpoint:\n%q\n%q", first.String(), second.String())
		}
	})
}

// WriteTraceCSV writes events in the canonical CSV trace format (the
// tenant column is emitted only for events that have one).
func WriteTraceCSV(w io.Writer, events []TraceEvent) error {
	for i := range events {
		ev := &events[i]
		if err := ev.validate(); err != nil {
			return fmt.Errorf("trace event %d: %w", i, err)
		}
		var err error
		if ev.Tenant != "" {
			_, err = fmt.Fprintf(w, "%s,%v,%v,%d,%s\n",
				formatSeconds(ev.Start), ev.Src, ev.Dst, ev.Bytes, ev.Tenant)
		} else {
			_, err = fmt.Fprintf(w, "%s,%v,%v,%d\n",
				formatSeconds(ev.Start), ev.Src, ev.Dst, ev.Bytes)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// formatSeconds renders a Duration as canonical decimal seconds with full
// nanosecond precision, the inverse of parseSeconds.
func formatSeconds(d time.Duration) string {
	return fmt.Sprintf("%d.%09d", d/time.Second, d%time.Second)
}
