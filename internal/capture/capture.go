package capture

import (
	"math"
	"slices"

	"scotch/internal/device"
	"scotch/internal/metrics"
	"scotch/internal/netaddr"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// FlowRecord tracks one flow end to end. A capture holds one for every
// flow a run ever starts, so the record is kept at 72 bytes: counts are
// int32, and the traffic class is an index into the capture's class
// names (Capture.Class reads it), which fits in the padding after them.
type FlowRecord struct {
	ID  uint64
	Key netaddr.FlowKey

	Expected    int32 // packets the source will send
	PacketsSent int32
	PacketsRecv int32
	class       uint16 // index into Capture.classes
	BytesRecv   uint64

	FirstSent sim.Time
	FirstRecv sim.Time
	LastRecv  sim.Time
}

// Delivered reports whether at least one packet of the flow arrived.
func (f *FlowRecord) Delivered() bool { return f.PacketsRecv > 0 }

// Completed reports whether every sent packet arrived.
func (f *FlowRecord) Completed() bool {
	return f.PacketsSent > 0 && f.PacketsRecv >= f.PacketsSent && f.PacketsSent >= f.Expected
}

// flowBlock is the capacity of one block of flow records.
const flowBlock = 256

// Capture aggregates flow records for one experiment.
type Capture struct {
	eng sim.Proc
	// blocks holds the records in creation order, flowBlock to a block.
	// A block is allocated at full capacity and never grows, so record
	// pointers stay valid, and registering a flow costs one heap
	// allocation per block rather than one per flow. IDs are dense
	// (1, 2, 3, ...), so record id lives at
	// blocks[(id-1)/flowBlock][(id-1)%flowBlock].
	blocks [][]FlowRecord
	// byKey holds the newest flow of each key until all its expected
	// packets have arrived, for packets that lost their FlowID (lookup).
	byKey map[netaddr.FlowKey]*FlowRecord
	// classes names the traffic classes ("client", "attack", ...) in
	// order of first use; a record's class field indexes it, and classID
	// maps each name back to its index.
	classes []string
	classID map[string]uint16
	// latency counts each class's one-way packet delays by exact value,
	// indexed like classes. Delays are integer nanoseconds on a
	// deterministic fabric and repeat, so a run of millions of packets
	// holds a few hundred keys.
	latency []map[sim.Time]uint64

	// OnFirstDelivery, when set, fires once per flow at the moment its
	// first packet is delivered — the flow-setup completion event the
	// scenario engine's latency trackers observe (now - f.FirstSent spans
	// Packet-In → RuleApplied → Delivered). class is the flow's class.
	OnFirstDelivery func(f *FlowRecord, class string, now sim.Time)
}

// New returns an empty capture.
func New(eng sim.Proc) *Capture {
	return &Capture{eng: eng, byKey: make(map[netaddr.FlowKey]*FlowRecord), classID: make(map[string]uint16)}
}

// Class returns the traffic class of a record registered with c.
func (c *Capture) Class(f *FlowRecord) string { return c.classes[f.class] }

// classIndex returns the index of a class name in c.classes, adding it on
// first use. A capture holds at most 65 536 classes.
func (c *Capture) classIndex(class string) uint16 {
	if i, ok := c.classID[class]; ok {
		return i
	}
	if len(c.classes) > math.MaxUint16 {
		panic("capture: more than 65536 traffic classes")
	}
	i := uint16(len(c.classes))
	c.classes = append(c.classes, class)
	c.classID[class] = i
	c.latency = append(c.latency, nil)
	return i
}

// NewFlow registers a flow about to be sent and returns its record. The
// returned record's ID must be stamped into packet Meta.FlowID. An
// expected count past math.MaxInt32 is stored as math.MaxInt32.
func (c *Capture) NewFlow(key netaddr.FlowKey, class string, expected int) *FlowRecord {
	n := len(c.blocks)
	if n == 0 || len(c.blocks[n-1]) == flowBlock {
		c.blocks = append(c.blocks, make([]FlowRecord, 0, flowBlock))
		n++
	}
	b := &c.blocks[n-1]
	id := uint64((n-1)*flowBlock + len(*b) + 1)
	*b = append(*b, FlowRecord{ID: id, Key: key, class: c.classIndex(class),
		Expected: int32(min(expected, math.MaxInt32)), FirstSent: c.eng.Now()})
	f := &(*b)[len(*b)-1]
	c.byKey[key] = f
	return f
}

// RecordSend notes the transmission of a packet belonging to a registered
// flow (identified through Meta.FlowID).
func (c *Capture) RecordSend(pkt *packet.Packet) {
	if f := c.lookup(pkt); f != nil {
		if f.PacketsSent == 0 {
			f.FirstSent = c.eng.Now()
		}
		f.PacketsSent++
	}
}

// lookup resolves a packet to its flow record. Metadata is preferred, but
// packets that crossed a Packet-In/Packet-Out wire round trip lose their
// simulation metadata, so the 5-tuple is the fallback identity.
func (c *Capture) lookup(pkt *packet.Packet) *FlowRecord {
	if id := pkt.Meta.FlowID; id >= 1 {
		if i := (id - 1) / flowBlock; i < uint64(len(c.blocks)) {
			if b, j := c.blocks[i], (id-1)%flowBlock; j < uint64(len(b)) {
				return &b[j]
			}
		}
	}
	return c.byKey[pkt.FlowKey()]
}

// RecordRecv notes the delivery of a packet belonging to a registered flow.
func (c *Capture) RecordRecv(pkt *packet.Packet, now sim.Time) {
	if f := c.lookup(pkt); f != nil {
		if f.PacketsRecv == 0 {
			f.FirstRecv = now
			if c.OnFirstDelivery != nil {
				c.OnFirstDelivery(f, c.classes[f.class], now)
			}
		}
		f.PacketsRecv++
		f.BytesRecv += uint64(pkt.Size)
		f.LastRecv = now
		if f.PacketsRecv >= f.Expected && c.byKey[f.Key] == f {
			delete(c.byKey, f.Key) // complete: nothing more to attribute by key
		}
		if pkt.Meta.SentAt > 0 {
			counts := c.latency[f.class]
			if counts == nil {
				counts = make(map[sim.Time]uint64)
				c.latency[f.class] = counts
			}
			counts[now-pkt.Meta.SentAt]++
		}
	}
}

// PacketLatency returns the one-way packet delay distribution (seconds)
// observed for a class. Packets that crossed a Packet-In/Packet-Out round
// trip lose their send timestamp and are not included. The histogram is
// built at the time of the call from the capture's exact per-delay counts,
// in ascending delay order, and is the caller's own: its snapshot and
// quantiles equal those of one fed every delay as it arrived.
func (c *Capture) PacketLatency(class string) *metrics.Histogram {
	var counts map[sim.Time]uint64
	if i, ok := c.classID[class]; ok {
		counts = c.latency[i]
	}
	delays := make([]sim.Time, 0, len(counts))
	var total uint64
	for d, n := range counts {
		delays = append(delays, d)
		total += n
	}
	slices.Sort(delays)
	var h metrics.Histogram
	h.Grow(int(total))
	for _, d := range delays {
		for n := counts[d]; n > 0; n-- {
			h.AddDuration(d)
		}
	}
	return &h
}

// Attach hooks the capture into a host's receive path, chaining any
// existing observer.
func (c *Capture) Attach(h *device.Host) {
	prev := h.OnReceive
	h.OnReceive = func(pkt *packet.Packet, now sim.Time) {
		c.RecordRecv(pkt, now)
		if prev != nil {
			prev(pkt, now)
		}
	}
}

// eachFlow visits the class's records ("" = all) in flow-creation order.
// Aggregates must not inherit map iteration order: histogram fills and
// float sums would differ between byte-identical reruns.
func (c *Capture) eachFlow(class string, fn func(*FlowRecord)) {
	idx, ok := c.classID[class]
	if class != "" && !ok {
		return
	}
	for _, b := range c.blocks {
		for i := range b {
			if f := &b[i]; class == "" || f.class == idx {
				fn(f)
			}
		}
	}
}

// Flows returns the records of a class ("" = all), in creation order.
func (c *Capture) Flows(class string) []*FlowRecord {
	var out []*FlowRecord
	c.eachFlow(class, func(f *FlowRecord) { out = append(out, f) })
	return out
}

// FailureFraction returns the fraction of the class's sent flows with zero
// delivered packets — the paper's headline metric.
func (c *Capture) FailureFraction(class string) float64 {
	sent, failed := 0, 0
	c.eachFlow(class, func(f *FlowRecord) {
		if f.PacketsSent == 0 {
			return
		}
		sent++
		if !f.Delivered() {
			failed++
		}
	})
	if sent == 0 {
		return 0
	}
	return float64(failed) / float64(sent)
}

// DeliveryRatio returns delivered packets / sent packets for a class.
func (c *Capture) DeliveryRatio(class string) float64 {
	var sent, recv int
	c.eachFlow(class, func(f *FlowRecord) {
		sent += int(f.PacketsSent)
		recv += int(f.PacketsRecv)
	})
	if sent == 0 {
		return 0
	}
	return float64(recv) / float64(sent)
}

// CompletionFraction returns the fraction of the class's flows that
// delivered every packet.
func (c *Capture) CompletionFraction(class string) float64 {
	n, done := 0, 0
	c.eachFlow(class, func(f *FlowRecord) {
		if f.PacketsSent == 0 {
			return
		}
		n++
		if f.Completed() {
			done++
		}
	})
	if n == 0 {
		return 0
	}
	return float64(done) / float64(n)
}

// FCT returns the flow-completion-time distribution (seconds) of the
// class's completed flows.
func (c *Capture) FCT(class string) *metrics.Histogram {
	var h metrics.Histogram
	c.eachFlow(class, func(f *FlowRecord) {
		if f.Completed() {
			h.AddDuration(f.LastRecv - f.FirstSent)
		}
	})
	return &h
}

// FirstPacketLatency returns the distribution of first-packet delivery
// latencies (flow setup + transit) for delivered flows of the class.
func (c *Capture) FirstPacketLatency(class string) *metrics.Histogram {
	var h metrics.Histogram
	c.eachFlow(class, func(f *FlowRecord) {
		if f.Delivered() {
			h.AddDuration(f.FirstRecv - f.FirstSent)
		}
	})
	return &h
}
