package main

// The registry is the benchmark's contract in code: the workloads, the
// end-to-end metrics with their bounds, and every per-layer metric with
// the (end-to-end metric, workload) pairs it is expected to move.
// BENCHMARK.json at the repo root lists exactly these names (pinned by
// TestManifestMatchesRegistry); `-manifest` regenerates it.

// Workload names.
const (
	wlDDoS    = "ddos-overlay"
	wlFatTree = "fattree-elephants"
	wlPktIn   = "live-packetin"
	wlBurst   = "live-flowmod-burst"
)

// workloadDef describes one workload.
type workloadDef struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json
	Loop string // closed/open-loop statement for the README and report
	Sim  bool   // runs on the simulator (deterministic counts and digest)
	Op   string // the unit of ops_per_s
}

var workloads = []workloadDef{
	{
		Name: wlDDoS,
		Why:  "Paper testbed under a 2000 flows/s spoofed DDoS: every op crosses the whole control chain (miss, Packet-In, controller, scotch, FlowMod, install) at steady 20k-rule tables; flowtable insert dominates.",
		Loop: "open loop: Poisson arrivals at 2000 attack + 100 client flows/s of simulated time, independent of how fast the host simulates them",
		Sim:  true,
		Op:   "new-flow request seen by Scotch",
	},
	{
		Name: wlFatTree,
		Why:  "k=4 fat-tree carrying 64 long TCP streams: the same device/flowtable/packet layers on the hit path plus the event core and capture, no control traffic; a control-path change must show nothing here.",
		Loop: "open loop: 64 senders at a fixed 1000 packets/s each of simulated time, in back-to-back 8000-packet transfers",
		Sim:  true,
		Op:   "packet accepted by a switch",
	},
	{
		Name: wlPktIn,
		Why:  "Loopback-TCP controller and 2 live switches: Packet-In answered by FlowMod+PacketOut; the only workload exercising ofnet framing, per-message writes and read loops in the request/reply direction.",
		Loop: "closed loop: 1 outstanding setup in the whole rig on one P (phase A, latency), then 16 per switch on all Ps (phase B, throughput)",
		Op:   "Packet-In to delivery round trip (phase B)",
	},
	{
		Name: wlBurst,
		Why:  "Same live rig in the opposite direction: one writer streams back-to-back FlowMods with a Barrier every 1024, the case write coalescing helps most and the control for live-packetin latency.",
		Loop: "closed loop per batch: each switch's writer sends 1024 FlowMods, then waits for one Barrier reply",
		Op:   "FlowMod confirmed applied",
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// e2eDef describes one end-to-end metric. Every workload reports every
// end-to-end metric; Meaning says what the metric is on each workload
// and which clock it uses (simulated time is what the modelled network
// would take, host time what this process takes).
type e2eDef struct {
	Name    string
	Unit    string
	Better  string // "lower" or "higher"
	Bound   float64
	Doc     string
	Meaning map[string]string
}

// End-to-end metric names.
const (
	mSetup     = "setup_s"
	mOps       = "ops_per_s"
	mAllocs    = "allocs_per_op"
	mBytes     = "bytes_per_op"
	mHeap      = "retained_heap_mb"
	mLatP50    = "latency_p50_us"
	mLatP99    = "latency_p99_us"
	mDelivered = "delivered_frac"
)

var endToEnd = []e2eDef{
	{
		Name: mSetup, Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "host time to build the rig, start the generators and run the untimed warm-up; built 5 times (live: 15), lower quartile reported",
	},
	{
		Name: mOps, Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "ops per host second in the steps the shared box left alone: the 90th-percentile rate over the timed section's steps (one simulated second; 100 or 250 ms live)",
	},
	{
		Name: mAllocs, Unit: "count", Better: "lower", Bound: 0.05,
		Doc: "heap allocations (MemStats.Mallocs delta) per op in the timed section",
	},
	{
		Name: mBytes, Unit: "B", Better: "lower", Bound: 0.05,
		Doc: "bytes allocated (MemStats.TotalAlloc delta) per op in the timed section",
	},
	{
		Name: mHeap, Unit: "MB", Better: "lower", Bound: 0.10,
		Doc: "HeapAlloc after a forced GC at the end of the timed section, rig still referenced",
	},
	{
		Name: mLatP50, Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "median latency of the workload's user-visible unit of work, in that workload's own clock",
		Meaning: map[string]string{
			wlDDoS:    "simulated: client-class first-packet latency (flow setup + transit)",
			wlFatTree: "simulated: one-way packet delay, host to host",
			wlPktIn:   "host: phase-A Inject to port-callback round trip, one setup outstanding, one P; 10th percentile of the 100 ms steps' medians",
			wlBurst:   "host: Barrier round trip behind a 1024-FlowMod batch; 10th percentile of the 1 s steps' medians",
		},
	},
	{
		Name: mLatP99, Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "99th percentile of the same latency (at least ten samples beyond it at full scale)",
	},
	{
		Name: mDelivered, Unit: "ratio", Better: "higher", Bound: 0.02,
		Doc: "1 - ops_failed/ops_attempted (reported this way round because a metric that is normally 0 cannot carry a relative bound)",
	},
}

// move is one prediction: a per-layer metric should move this end-to-end
// metric on this workload.
type move struct{ Metric, Workload string }

// layerDef describes one per-layer metric. A metric either declares the
// end-to-end results it should move or says why it moves none today.
type layerDef struct {
	Name   string
	Unit   string
	Better string
	Layer  string
	Moves  []move
	NoMove string
}

var (
	mvOpsDDoS    = move{mOps, wlDDoS}
	mvOpsFat     = move{mOps, wlFatTree}
	mvOpsPktIn   = move{mOps, wlPktIn}
	mvOpsBurst   = move{mOps, wlBurst}
	mvAllocDDoS  = move{mAllocs, wlDDoS}
	mvAllocFat   = move{mAllocs, wlFatTree}
	mvAllocPktIn = move{mAllocs, wlPktIn}
	mvBytesFat   = move{mBytes, wlFatTree}
	mvHeapFat    = move{mHeap, wlFatTree}
	mvLatDDoS    = move{mLatP99, wlDDoS}
	mvLatPktIn   = move{mLatP50, wlPktIn}
	mvLatBurst   = move{mLatP50, wlBurst}
	mvFailDDoS   = move{mDelivered, wlDDoS}
)

// perLayer is filled by init from the per-layer tables below.
var perLayer []layerDef

// layers lists the layers that own an est_share, in report order.
var layers []string

// layer registers a layer's metrics plus its est_share. A metric that
// says nothing of its own inherits what the layer is expected to move.
func layer(name string, expected layerDef, defs ...layerDef) {
	if name != "harness" {
		layers = append(layers, name)
		defs = append(defs, m(name+".est_share", "ratio"))
	}
	for _, d := range defs {
		d.Layer = name
		if d.Moves == nil && d.NoMove == "" {
			d.Moves, d.NoMove = expected.Moves, expected.NoMove
		}
		perLayer = append(perLayer, d)
	}
}

// moving and movingNone state a layer's expectation: the (end-to-end
// metric, workload) pairs its metrics should move, or why there are none.
func moving(ms ...move) layerDef     { return layerDef{Moves: ms} }
func movingNone(why string) layerDef { return layerDef{NoMove: why} }

// m is a per-layer metric for which lower is better.
func m(name, unit string) layerDef { return layerDef{Name: name, Unit: unit, Better: "lower"} }

func (d layerDef) up() layerDef               { d.Better = "higher"; return d }
func (d layerDef) moving(ms ...move) layerDef { d.Moves = ms; return d }

func init() {
	layer("sim", moving(mvOpsFat, mvAllocFat),
		m("sim.events", "count"),
		m("sim.events_per_s", "1/s").up(),
		m("sim.speed_x", "ratio").up(),
		m("sim.events_per_op", "count"),
		m("sim.pending_peak", "count"),
		m("sim.schedule_fire_ns", "ns"), m("sim.schedule_fire_allocs", "count"),
		m("sim.defercall_fire_ns", "ns"),
		m("sim.deferbytes_fire_ns", "ns"),
		m("sim.loaded_fire_ns", "ns"),
		m("sim.server_submit_serve_ns", "ns"),
		m("sim.sharded_fire_ns", "ns"),
		m("sim.sharded_window_ns", "ns"),
		m("sim.sharded_speedup_x", "ratio").up(),
	)
	layer("packet", moving(mvOpsFat, mvBytesFat),
		m("packet.new_tcp_ns", "ns"), m("packet.new_tcp_allocs", "count"),
		m("packet.clone_ns", "ns"), m("packet.clone_allocs", "count"),
		m("packet.marshal_ns", "ns"),
		m("packet.parse_ns", "ns"), m("packet.parse_allocs", "count"),
		m("packet.mpls_push_pop_ns", "ns"),
		m("packet.gre_encap_decap_ns", "ns"),
	)
	var codec []layerDef
	for _, msg := range []string{"packet_in", "flow_mod", "packet_out", "group_mod"} {
		for _, dir := range []string{"marshal", "unmarshal"} {
			codec = append(codec, m("openflow."+msg+"_"+dir+"_ns", "ns"), m("openflow."+msg+"_"+dir+"_allocs", "count"))
		}
	}
	layer("openflow", moving(mvOpsPktIn, mvOpsBurst, mvAllocPktIn, mvOpsDDoS), codec...)

	layer("flowtable", moving(mvOpsDDoS, mvOpsFat),
		m("flowtable.rules_peak", "count").moving(mvOpsDDoS),
		m("flowtable.insert_ns", "ns").moving(mvOpsDDoS),
		m("flowtable.insert_ns_1k", "ns").moving(mvOpsDDoS),
		m("flowtable.insert_ns_32k", "ns").moving(mvOpsDDoS),
		m("flowtable.delete_strict_ns_32k", "ns").moving(mvOpsDDoS),
		m("flowtable.expire_ns_32k", "ns").moving(mvOpsDDoS),
		m("flowtable.lookup_exact_ns", "ns").moving(mvOpsFat),
		m("flowtable.lookup_miss_ns", "ns").moving(mvOpsDDoS),
		m("flowtable.lookup_wild_ns", "ns").moving(mvOpsFat),
		m("flowtable.pipeline_hit_ns", "ns").moving(mvOpsFat),
		m("flowtable.pipeline_hit_allocs", "count").moving(mvOpsFat),
	)
	layer("device", moving(mvOpsDDoS, mvOpsFat),
		m("device.data_in", "count"),
		m("device.misses", "count").moving(mvOpsDDoS, mvLatDDoS),
		m("device.miss_ratio", "ratio").moving(mvOpsDDoS, mvLatDDoS),
		m("device.packet_in_sent", "count").moving(mvOpsDDoS, mvLatDDoS),
		m("device.packet_in_dropped", "count").moving(mvFailDDoS),
		m("device.rules_installed", "count").moving(mvOpsDDoS),
		m("device.table_full", "count").moving(mvFailDDoS),
		m("device.stall_drops", "count").moving(mvFailDDoS),
		m("device.receive_hit_ns", "ns").moving(mvOpsFat),
		m("device.receive_hit_allocs", "count").moving(mvAllocFat),
		m("device.receive_miss_ns", "ns").moving(mvOpsDDoS, mvLatDDoS),
		m("device.receive_miss_allocs", "count").moving(mvAllocDDoS),
		m("device.flowmod_apply_ns", "ns").moving(mvOpsDDoS, mvLatDDoS),
	)
	layer("controller", moving(mvOpsDDoS, mvAllocDDoS),
		m("controller.packet_ins", "count"),
		m("controller.flowmods_sent", "count"),
		m("controller.packet_outs_sent", "count"),
		m("controller.miss_to_app_ns", "ns"), m("controller.miss_to_app_allocs", "count"),
		m("topo.path_ns", "ns"),
	)
	layer("scotch", moving(mvOpsDDoS, mvFailDDoS, mvLatDDoS),
		m("scotch.requests", "count"),
		m("scotch.overlay_routed", "count"),
		m("scotch.physical_admitted", "count"),
		m("scotch.dropped", "count"),
		m("scotch.duplicate_punts", "count"),
		m("scotch.useful_ratio", "ratio").up(),
		m("scotch.packet_ins_per_setup", "ratio"),
		m("scotch.install_backlog_peak", "count"),
		m("scotch.handle_packet_in_ns", "ns"),
		m("scotch.handle_packet_in_p99_ns", "ns"),
		m("scotch.handle_packet_in_share", "ratio"),
	)
	const noDevolve = "no workload enables devolution today; a devolved-mice workload is a later benchmark issue"
	layer("devolve", movingNone(noDevolve),
		m("devolve.handle_miss_hit_ns", "ns"), m("devolve.handle_miss_hit_allocs", "count"),
		m("devolve.decide_ns", "ns"),
	)
	layer("capture", moving(mvHeapFat, mvBytesFat, mvOpsFat),
		m("capture.record_send_ns", "ns"),
		m("capture.record_recv_ns", "ns"), m("capture.record_recv_allocs", "count"),
		m("metrics.histogram_observe_ns", "ns"),
		m("metrics.bucket_observe_ns", "ns"),
		m("capture.retained_bytes_per_pkt", "B"),
	)
	layer("ofnet", moving(mvOpsPktIn, mvOpsBurst, mvLatPktIn),
		m("ofnet.msgs_per_s", "1/s").up(),
		m("ofnet.msgs_received", "count"),
		m("ofnet.write_errors", "count"),
		m("ofnet.rtt_p99_us", "us"),
		m("ofnet.rtt_p50_us_w16", "us"),
		m("ofnet.inject_ns", "ns"),
		m("ofnet.wire_up_us", "us"),
		m("ofnet.handler_ns", "ns"),
		m("ofnet.wire_down_us", "us"),
		m("ofnet.barrier_rtt_us", "us").moving(mvLatBurst, mvOpsBurst),
		m("ofnet.send_ns", "ns"), m("ofnet.send_allocs", "count"),
		m("ofnet.recv_ns", "ns"), m("ofnet.recv_allocs", "count"),
		m("ofnet.writes_per_msg", "ratio"),
	)
	const harness = "a property of the benchmark harness, not of a layer; reported so the probe set's coverage and the tracer's cost are visible"
	layer("harness", movingNone(harness),
		m("unattributed_share", "ratio"),
		m("trace_overhead_frac", "ratio"),
		m("trace.spans", "count").up(),
		m("trace.spans_dropped", "count"),
	)
}
