package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"scotch/internal/flowtable"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

func testKey(i byte) netaddr.FlowKey {
	return netaddr.FlowKey{
		Src:     netaddr.MakeIPv4(10, 0, 0, i),
		Dst:     netaddr.MakeIPv4(10, 0, 1, 1),
		Proto:   netaddr.ProtoTCP,
		SrcPort: 1000,
		DstPort: 80,
	}
}

// recordLifecycle records a full in-order control-path lifecycle starting
// at base with 1ms between points.
func recordLifecycle(t *Tracer, key netaddr.FlowKey, base sim.Time) {
	for k := Point(0); k < numPoints; k++ {
		t.Point(k, key, 7, base+sim.Time(k)*time.Millisecond)
	}
}

func TestTracerSpansFullLifecycle(t *testing.T) {
	tr := NewTracer()
	recordLifecycle(tr, testKey(1), 0)
	spans := tr.Spans()
	want := StageNames()
	if len(spans) != len(want) {
		t.Fatalf("spans = %d, want %d", len(spans), len(want))
	}
	for i, s := range spans {
		if s.Stage != want[i] {
			t.Fatalf("span %d stage = %q, want %q", i, s.Stage, want[i])
		}
		if s.Duration() != time.Millisecond {
			t.Fatalf("span %q duration = %v, want 1ms", s.Stage, s.Duration())
		}
		if s.FlowID != 1 {
			t.Fatalf("span flow id = %d", s.FlowID)
		}
	}
}

// TestTracerSpansPacketOutRace covers the post-decision branch: the
// Packet-Out delivers the first packet BEFORE the FlowMod commits through
// the OFA insert queue. The first-packet span must anchor at the install
// point (the latest earlier point not after it), not at rule-applied.
func TestTracerSpansPacketOutRace(t *testing.T) {
	tr := NewTracer()
	key := testKey(1)
	tr.Point(PointMiss, key, 7, 0)
	tr.Point(PointPacketInEmit, key, 7, 1*time.Millisecond)
	tr.Point(PointInstall, key, 0, 2*time.Millisecond)
	tr.Point(PointRuleApplied, key, 7, 5*time.Millisecond) // OFA insert latency
	tr.Point(PointDelivered, key, 0, 3*time.Millisecond)   // Packet-Out raced ahead

	var first, rule *Span
	for _, s := range tr.Spans() {
		s := s
		switch s.Stage {
		case "first-packet":
			first = &s
		case "rule-install":
			rule = &s
		}
	}
	if first == nil || rule == nil {
		t.Fatalf("missing spans: %+v", tr.Spans())
	}
	if first.Start != 2*time.Millisecond || first.End != 3*time.Millisecond {
		t.Fatalf("first-packet = [%v, %v], want [2ms, 3ms]", first.Start, first.End)
	}
	if rule.Start != 2*time.Millisecond || rule.End != 5*time.Millisecond {
		t.Fatalf("rule-install = [%v, %v], want [2ms, 5ms]", rule.Start, rule.End)
	}
}

func TestTracerFirstOccurrenceWins(t *testing.T) {
	tr := NewTracer()
	key := testKey(1)
	tr.Point(PointMiss, key, 7, 0)
	tr.Point(PointMiss, key, 9, 5*time.Millisecond) // retransmission: ignored
	tr.Point(PointPacketInEmit, key, 7, time.Millisecond)
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Duration() != time.Millisecond {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestTracerMaxFlows(t *testing.T) {
	tr := NewTracer()
	tr.MaxFlows = 2
	for i := byte(1); i <= 5; i++ {
		tr.Point(PointMiss, testKey(i), 1, 0)
	}
	if len(tr.order) != 2 {
		t.Fatalf("flows = %d, want 2", len(tr.order))
	}
	// Existing flows keep recording past the cap.
	tr.Point(PointPacketInEmit, testKey(1), 1, time.Millisecond)
	if len(tr.Spans()) != 1 {
		t.Fatalf("spans = %+v", tr.Spans())
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Point(PointMiss, testKey(1), 1, 0)
	tr.PointTag(PointClassified, testKey(1), 1, 0, "overlay")
	tr.Mark("event", 0)
	if tr.Spans() != nil || tr.StageSummary() != nil {
		t.Fatal("nil tracer recorded something")
	}
}

func TestStageSummaryQuantiles(t *testing.T) {
	tr := NewTracer()
	// 100 flows with ofa-queue latency i ms.
	for i := byte(1); i <= 100; i++ {
		key := testKey(i)
		tr.Point(PointMiss, key, 1, 0)
		tr.Point(PointPacketInEmit, key, 1, sim.Time(i)*time.Millisecond)
	}
	ss := tr.StageSummary()
	if len(ss) != 1 || ss[0].Stage != "ofa-queue" || ss[0].Count != 100 {
		t.Fatalf("summary = %+v", ss)
	}
	if ss[0].Max != 100*time.Millisecond {
		t.Fatalf("max = %v", ss[0].Max)
	}
	if ss[0].P50 < 49*time.Millisecond || ss[0].P50 > 52*time.Millisecond {
		t.Fatalf("p50 = %v", ss[0].P50)
	}
}

func TestWriteStageSummaryEmpty(t *testing.T) {
	var buf bytes.Buffer
	NewTracer().WriteStageSummary(&buf)
	if !strings.Contains(buf.String(), "no control-path spans") {
		t.Fatalf("empty summary = %q", buf.String())
	}
}

// chromeDoc mirrors the trace-event JSON layout for decoding in tests.
type chromeDoc struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		TS    float64        `json:"ts"`
		Dur   float64        `json:"dur"`
		PID   int            `json:"pid"`
		TID   int            `json:"tid"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer()
	recordLifecycle(tr, testKey(1), 0)
	tr.Mark("pod-migrate pod0 0->1", 10*time.Millisecond)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, NamedTrace{Name: "run1", Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	stages := make(map[string]bool)
	var marks, meta int
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "X":
			stages[ev.Name] = true
			if ev.Dur != 1000 { // 1ms in µs
				t.Fatalf("span %q dur = %v µs", ev.Name, ev.Dur)
			}
		case "i":
			marks++
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q", ev.Phase)
		}
	}
	if len(stages) != len(StageNames()) {
		t.Fatalf("distinct stages = %d, want %d", len(stages), len(StageNames()))
	}
	if marks != 1 || meta != 2 { // process_name + thread_name
		t.Fatalf("marks = %d, meta = %d", marks, meta)
	}
}

// TestWriteChromeTraceEmptyAndDisabled: an empty tracer and a nil (disabled)
// tracer both still produce a valid, loadable document.
func TestWriteChromeTraceEmptyAndDisabled(t *testing.T) {
	for _, nt := range []NamedTrace{
		{Name: "empty", Tracer: NewTracer()},
		{Name: "disabled", Tracer: nil},
	} {
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, nt); err != nil {
			t.Fatalf("%s: %v", nt.Name, err)
		}
		var doc chromeDoc
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: invalid JSON: %v", nt.Name, err)
		}
		if doc.TraceEvents == nil {
			t.Fatalf("%s: traceEvents must be [], not null", nt.Name)
		}
		if doc.DisplayTimeUnit != "ms" {
			t.Fatalf("%s: displayTimeUnit = %q", nt.Name, doc.DisplayTimeUnit)
		}
	}
	// No tracers at all.
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("no-tracer document invalid")
	}
}

// TestFlowKeyFromMatch checks the key a switch records at the rule-applied
// trace point: flowtable.KeyFromMatch gives an exact-match rule the same
// flow key the tracer's other points use, and a wildcard rule none.
func TestFlowKeyFromMatch(t *testing.T) {
	key := testKey(1)
	m := &openflow.Match{
		Fields:  openflow.FieldEthType | openflow.FieldIPProto | openflow.FieldIPv4Src | openflow.FieldIPv4Dst | openflow.FieldTCPSrc | openflow.FieldTCPDst,
		EthType: packet.EtherTypeIPv4,
		IPProto: key.Proto,
		IPv4Src: key.Src,
		IPv4Dst: key.Dst,
		TCPSrc:  key.SrcPort,
		TCPDst:  key.DstPort,
	}
	got, ok := flowtable.KeyFromMatch(m)
	if !ok || got != key {
		t.Fatalf("got %v ok=%v, want %v", got, ok, key)
	}
	// Wildcard match (no 5-tuple) belongs to no flow.
	if _, ok := flowtable.KeyFromMatch(&openflow.Match{}); ok {
		t.Fatal("wildcard match produced a key")
	}
}
