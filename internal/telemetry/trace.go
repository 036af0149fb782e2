package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/sim"
)

// Point identifies one instrumented instant in a reactive flow's
// control-path lifecycle. Points are recorded in causal order; the span for
// a stage is the interval between two consecutive recorded points.
type Point uint8

const (
	// PointMiss: the flow's first packet missed in a switch's flow tables
	// and entered the OFA's Packet-In queue.
	PointMiss Point = iota
	// PointPacketInEmit: the OFA emitted the Packet-In toward the
	// controller (OFA queueing ends here).
	PointPacketInEmit
	// PointCtrlRecv: the controller decoded the Packet-In off its control
	// channel (covers the wire and, when the overlay is engaged, the
	// vSwitch relay detour).
	PointCtrlRecv
	// PointDispatch: the punt left the controller's ingress queue and was
	// handed to the applications.
	PointDispatch
	// PointClassified: the Scotch app finished classifying the request
	// (physical path, overlay, duplicate, or drop).
	PointClassified
	// PointInstall: the paced install scheduler served the request and the
	// first FlowMod left the controller.
	PointInstall
	// PointRuleApplied: a switch committed the flow's first rule to a flow
	// table (OFA insertion latency ends here).
	PointRuleApplied
	// PointDelivered: the flow's first packet reached its destination host.
	PointDelivered

	numPoints
)

// stageNames names the span that ENDS at each point; index 0 (PointMiss)
// starts the timeline and closes no span.
var stageNames = [numPoints]string{
	PointPacketInEmit: "ofa-queue",
	PointCtrlRecv:     "control-channel",
	PointDispatch:     "controller-queue",
	PointClassified:   "app-classify",
	PointInstall:      "sched-wait",
	PointRuleApplied:  "rule-install",
	PointDelivered:    "first-packet",
}

// StageNames returns the ordered control-path stage names a full flow
// lifecycle produces.
func StageNames() []string {
	out := make([]string, 0, numPoints-1)
	for _, n := range stageNames {
		if n != "" {
			out = append(out, n)
		}
	}
	return out
}

// pointRec is one recorded instant.
type pointRec struct {
	set  bool
	dpid uint64
	at   sim.Time
	tag  string // optional annotation (classification outcome etc.)
}

// flowTrace is the per-flow lifecycle: each point kind is recorded at most
// once (the first occurrence wins — later duplicates belong to retries or
// downstream hops of an already-traced stage).
type flowTrace struct {
	id  int
	key netaddr.FlowKey
	pts [numPoints]pointRec
}

// Tracer records control-path lifecycles. It is NOT goroutine-safe: a
// tracer belongs to one simulation engine's event loop (experiments each
// own a private engine, so the parallel runner uses one tracer per
// experiment). All methods are nil-receiver-safe; a nil *Tracer is the
// disabled state and costs a single branch per hook.
type Tracer struct {
	// MaxFlows bounds the number of distinct flows traced (first-come);
	// beyond it new flows are ignored so tracing a DDoS-scale experiment
	// cannot exhaust memory. Zero means the default of 1<<20.
	MaxFlows int

	flows map[netaddr.FlowKey]*flowTrace
	order []*flowTrace
	marks []mark
}

// mark is a global instant event (pod migration, failover, activation).
type mark struct {
	name string
	at   sim.Time
}

// NewTracer returns an enabled tracer.
func NewTracer() *Tracer {
	return &Tracer{flows: make(map[netaddr.FlowKey]*flowTrace)}
}

// Point records an instant in a flow's lifecycle. Nil-safe; the first
// occurrence of each point kind per flow wins.
func (t *Tracer) Point(kind Point, key netaddr.FlowKey, dpid uint64, now sim.Time) {
	t.PointTag(kind, key, dpid, now, "")
}

// PointTag is Point with an annotation carried into the exported span args.
func (t *Tracer) PointTag(kind Point, key netaddr.FlowKey, dpid uint64, now sim.Time, tag string) {
	if t == nil || kind >= numPoints {
		return
	}
	ft := t.flows[key]
	if ft == nil {
		limit := t.MaxFlows
		if limit <= 0 {
			limit = 1 << 20
		}
		if len(t.order) >= limit {
			return
		}
		ft = &flowTrace{id: len(t.order) + 1, key: key}
		t.flows[key] = ft
		t.order = append(t.order, ft)
	}
	if ft.pts[kind].set {
		return
	}
	ft.pts[kind] = pointRec{set: true, dpid: dpid, at: now, tag: tag}
}

// Mark records a global instant event (e.g. "pod-migrate pod0 0->1").
func (t *Tracer) Mark(name string, now sim.Time) {
	if t == nil {
		return
	}
	t.marks = append(t.marks, mark{name: name, at: now})
}

// Span is one reconstructed control-path stage of one flow.
type Span struct {
	Stage string
	Flow  netaddr.FlowKey
	// FlowID is the tracer-local ordinal of the flow (1-based).
	FlowID int
	// DPID is the switch the closing point was observed at (0 when the
	// point is controller- or host-side).
	DPID  uint64
	Start sim.Time
	End   sim.Time
	Tag   string
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Spans reconstructs every flow's stage spans in flow-arrival order. Each
// recorded point closes a span named after its stage, anchored at the
// latest earlier point that does not precede it in causal order but does
// in time — the control path branches after the app decision (the FlowMod
// commits through the OFA insert queue while the Packet-Out races ahead),
// so the first-packet span can legitimately start before rule-install
// ends.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for _, ft := range t.order {
		for k := 1; k < int(numPoints); k++ {
			p := &ft.pts[k]
			if !p.set || stageNames[k] == "" {
				continue
			}
			for j := k - 1; j >= 0; j-- {
				q := &ft.pts[j]
				if !q.set || q.at > p.at {
					continue
				}
				out = append(out, Span{
					Stage:  stageNames[k],
					Flow:   ft.key,
					FlowID: ft.id,
					DPID:   p.dpid,
					Start:  q.at,
					End:    p.at,
					Tag:    p.tag,
				})
				break
			}
		}
	}
	return out
}

// StageStats summarizes the latency distribution of one stage across all
// traced flows.
type StageStats struct {
	Stage string
	Count int
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// StageSummary aggregates Spans per stage, in canonical stage order.
// Stages with no samples are omitted.
func (t *Tracer) StageSummary() []StageStats {
	if t == nil {
		return nil
	}
	byStage := make(map[string][]time.Duration)
	for _, s := range t.Spans() {
		byStage[s.Stage] = append(byStage[s.Stage], s.Duration())
	}
	var out []StageStats
	for _, name := range StageNames() {
		ds := byStage[name]
		if len(ds) == 0 {
			continue
		}
		slices.Sort(ds)
		out = append(out, StageStats{
			Stage: name,
			Count: len(ds),
			P50:   quantileDur(ds, 0.50),
			P99:   quantileDur(ds, 0.99),
			Max:   ds[len(ds)-1],
		})
	}
	return out
}

// quantileDur returns the q-quantile of a sorted duration slice (nearest
// rank with linear interpolation, matching metrics.Histogram.Quantile).
func quantileDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	if q <= 0 {
		return ds[0]
	}
	if q >= 1 {
		return ds[len(ds)-1]
	}
	pos := q * float64(len(ds)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(ds) {
		return ds[i]
	}
	return ds[i] + time.Duration(frac*float64(ds[i+1]-ds[i]))
}

// chromeEvent is one entry of the Chrome trace-event format ("trace event
// JSON", loadable in chrome://tracing and Perfetto).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// NamedTrace labels a tracer for multi-process Chrome export (one process
// per experiment).
type NamedTrace struct {
	Name   string
	Tracer *Tracer
}

// WriteChromeTrace exports one or more tracers as a single Chrome
// trace-event JSON document. Each tracer becomes a "process" (pid); each
// traced flow becomes a "thread" (tid) whose spans are complete ("X")
// events; marks become instant ("i") events. Timestamps are virtual-time
// microseconds. Disabled (nil) or empty tracers export no events but still
// produce a valid document.
func WriteChromeTrace(w io.Writer, traces ...NamedTrace) error {
	doc := chromeFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for i, nt := range traces {
		pid := i + 1
		if nt.Name != "" {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "process_name", Phase: "M", PID: pid,
				Args: map[string]any{"name": nt.Name},
			})
		}
		t := nt.Tracer
		if t == nil {
			continue
		}
		for _, ft := range t.order {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "thread_name", Phase: "M", PID: pid, TID: ft.id,
				Args: map[string]any{"name": ft.key.String()},
			})
		}
		for _, s := range t.Spans() {
			args := map[string]any{"flow": s.Flow.String()}
			if s.DPID != 0 {
				args["dpid"] = s.DPID
			}
			if s.Tag != "" {
				args["tag"] = s.Tag
			}
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name:  s.Stage,
				Cat:   "control-path",
				Phase: "X",
				TS:    float64(s.Start) / float64(time.Microsecond),
				Dur:   float64(s.Duration()) / float64(time.Microsecond),
				PID:   pid,
				TID:   s.FlowID,
				Args:  args,
			})
		}
		for _, m := range t.marks {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name:  m.name,
				Cat:   "cluster",
				Phase: "i",
				TS:    float64(m.at) / float64(time.Microsecond),
				PID:   pid,
				TID:   0,
				Args:  map[string]any{"s": "p"},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}

// WriteStageSummary prints the per-stage latency breakdown as an aligned
// text table ("-stages" output).
func (t *Tracer) WriteStageSummary(w io.Writer) {
	stats := t.StageSummary()
	if len(stats) == 0 {
		fmt.Fprintln(w, "no control-path spans recorded")
		return
	}
	fmt.Fprintf(w, "%-18s %8s %12s %12s %12s\n", "stage", "count", "p50_ms", "p99_ms", "max_ms")
	for _, s := range stats {
		fmt.Fprintf(w, "%-18s %8d %12.3f %12.3f %12.3f\n",
			s.Stage, s.Count,
			float64(s.P50)/float64(time.Millisecond),
			float64(s.P99)/float64(time.Millisecond),
			float64(s.Max)/float64(time.Millisecond))
	}
}
