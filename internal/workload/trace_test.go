package workload

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"scotch/internal/capture"
	"scotch/internal/netaddr"
	"scotch/internal/sim"
)

func TestParseTraceCSV(t *testing.T) {
	in := `# demo trace
0.5,10.0.0.1,10.0.1.1,4000,web

2,10.0.0.2,10.0.1.1,500
0.000000250,172.16.0.9,10.0.1.2,0,batch
`
	events, err := ParseTraceCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []TraceEvent{
		{Start: 500 * time.Millisecond, Src: netaddr.MakeIPv4(10, 0, 0, 1),
			Dst: netaddr.MakeIPv4(10, 0, 1, 1), Bytes: 4000, Tenant: "web"},
		{Start: 2 * time.Second, Src: netaddr.MakeIPv4(10, 0, 0, 2),
			Dst: netaddr.MakeIPv4(10, 0, 1, 1), Bytes: 500},
		{Start: 250 * time.Nanosecond, Src: netaddr.MakeIPv4(172, 16, 0, 9),
			Dst: netaddr.MakeIPv4(10, 0, 1, 2), Bytes: 0, Tenant: "batch"},
	}
	if len(events) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(events), len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}

func TestParseTraceCSVMalformed(t *testing.T) {
	cases := map[string]string{
		"too few fields":    "1.0,10.0.0.1,10.0.0.2",
		"too many fields":   "1.0,10.0.0.1,10.0.0.2,5,web,extra",
		"bad seconds":       "1e3,10.0.0.1,10.0.0.2,5",
		"negative seconds":  "-1,10.0.0.1,10.0.0.2,5",
		"10 frac digits":    "1.0000000001,10.0.0.1,10.0.0.2,5",
		"beyond horizon":    "1000001,10.0.0.1,10.0.0.2,5",
		"bad src":           "1,300.0.0.1,10.0.0.2,5",
		"bad dst":           "1,10.0.0.1,nope,5",
		"negative bytes":    "1,10.0.0.1,10.0.0.2,-5",
		"non-numeric bytes": "1,10.0.0.1,10.0.0.2,x",
	}
	for name, line := range cases {
		if _, err := ParseTraceCSV(strings.NewReader(line)); err == nil {
			t.Errorf("%s: accepted %q", name, line)
		}
	}
	// Errors carry the offending line number, counting comments and blanks.
	_, err := ParseTraceCSV(strings.NewReader("# header\n\n1,10.0.0.1,10.0.0.2,5\nbroken\n"))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error %v does not name line 4", err)
	}
}

// TestTraceRoundTrip: write → parse is the identity for the CSV codec, at
// nanosecond timestamp resolution.
func TestTraceRoundTrip(t *testing.T) {
	events := []TraceEvent{
		{Start: 0, Src: netaddr.MakeIPv4(10, 0, 0, 1), Dst: netaddr.MakeIPv4(10, 0, 1, 1), Bytes: 1},
		{Start: 123456789 * time.Nanosecond, Src: netaddr.MakeIPv4(1, 2, 3, 4),
			Dst: netaddr.MakeIPv4(5, 6, 7, 8), Bytes: 1 << 30, Tenant: "web"},
		{Start: maxTraceStart, Src: netaddr.MakeIPv4(255, 255, 255, 255),
			Dst: netaddr.MakeIPv4(0, 0, 0, 0), Bytes: 0, Tenant: "batch"},
	}
	var csv bytes.Buffer
	if err := WriteTraceCSV(&csv, events); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := ParseTraceCSV(bytes.NewReader(csv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if fromCSV[i] != events[i] {
			t.Errorf("CSV round trip event %d: %+v != %+v", i, fromCSV[i], events[i])
		}
	}
	// The writer refuses invalid events rather than emitting unparseable
	// lines.
	if err := WriteTraceCSV(&csv, []TraceEvent{{Start: -time.Second}}); err == nil {
		t.Error("WriteTraceCSV accepted a negative start")
	}
	if err := WriteTraceCSV(&csv, []TraceEvent{{Tenant: "a\nb"}}); err == nil {
		t.Error("WriteTraceCSV accepted a tenant with a newline")
	}
}

// TestReplayDelivers replays a small trace over a live host pair and checks
// every event becomes a delivered flow with the trace's source, tenant
// label, and byte-derived packet count.
func TestReplayDelivers(t *testing.T) {
	eng := sim.New(1)
	h1, h2 := pair(eng)
	cap := capture.New(eng)
	cap.Attach(h2)
	em := NewEmitter(eng, h1, cap)

	events := []TraceEvent{
		{Start: 100 * time.Millisecond, Src: netaddr.MakeIPv4(192, 168, 0, 1),
			Dst: netaddr.MakeIPv4(10, 0, 1, 1), Bytes: 2500, Tenant: "web"},
		{Start: 200 * time.Millisecond, Src: netaddr.MakeIPv4(192, 168, 0, 2),
			Dst: netaddr.MakeIPv4(10, 0, 1, 1), Bytes: 0},
	}
	n := Replay(eng, events, ReplayConfig{
		MSS: 1000,
		Resolve: func(ev TraceEvent) (*Emitter, netaddr.IPv4) {
			return em, h2.IP
		},
	})
	if n != 2 {
		t.Fatalf("scheduled %d events, want 2", n)
	}
	eng.RunUntil(time.Second)

	web := cap.Flows("web")
	if len(web) != 1 {
		t.Fatalf("web flows = %d, want 1", len(web))
	}
	// 2500 bytes at MSS 1000 → ceil = 3 packets, source kept from the trace.
	if web[0].PacketsRecv != 3 {
		t.Errorf("web packets = %d, want 3", web[0].PacketsRecv)
	}
	if web[0].Key.Src != events[0].Src {
		t.Errorf("web flow src = %v, want trace src %v", web[0].Key.Src, events[0].Src)
	}
	if web[0].FirstSent != 100*time.Millisecond {
		t.Errorf("web flow started at %v, want 100ms", web[0].FirstSent)
	}
	rep := cap.Flows("replay")
	if len(rep) != 1 || rep[0].PacketsRecv != 1 {
		t.Fatalf("default-tenant flows = %+v, want one single-packet flow", rep)
	}

	// A resolver returning nil skips the event without scheduling.
	if n := Replay(eng, events, ReplayConfig{Resolve: func(TraceEvent) (*Emitter, netaddr.IPv4) {
		return nil, netaddr.IPv4(0)
	}}); n != 0 {
		t.Errorf("nil-resolve replay scheduled %d events", n)
	}
}
