// Package testsupport holds helpers that tests of several packages share
// and no program calls, so cmd/doclint's link check exempts it by path.
package testsupport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"scotch/internal/capture"
	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/packet"
	"scotch/internal/sim"
	"scotch/internal/telemetry"
	"scotch/internal/topo"
)

// Linear is a chain of switches with one host at each end.
type Linear struct {
	Net      *topo.Network
	Switches []*device.Switch
	Left     *device.Host
	Right    *device.Host
}

// NewLinear builds a chain of nsw switches with the given profile.
func NewLinear(eng sim.Proc, nsw int, prof device.Profile, linkDelay time.Duration) *Linear {
	n := topo.New(eng)
	ln := &Linear{Net: n}
	cfg := device.LinkConfig{Delay: linkDelay}
	for i := 0; i < nsw; i++ {
		sw := n.AddSwitch(fmt.Sprintf("s%d", i), prof)
		if i > 0 {
			n.LinkSwitches(ln.Switches[i-1], sw, cfg)
		}
		ln.Switches = append(ln.Switches, sw)
	}
	ln.Left = n.AddHost("left", netaddr.MakeIPv4(10, 0, 0, 1))
	ln.Right = n.AddHost("right", netaddr.MakeIPv4(10, 0, 1, 1))
	n.AttachHost(ln.Left, ln.Switches[0], cfg)
	n.AttachHost(ln.Right, ln.Switches[nsw-1], cfg)
	return ln
}

// Responder makes a host answer every delivered packet with one response
// to its sender, a new flow to the network: a SYN gets a SYN|ACK,
// everything else an ACK.
type Responder struct {
	eng   sim.Proc
	host  *device.Host
	cap   *capture.Capture
	class string

	flows map[netaddr.FlowKey]uint64 // reverse key -> capture flow id
	Sent  uint64

	// RespondTo, when set, limits which sources are answered; nil answers
	// everything, spoofed sources included.
	RespondTo func(src netaddr.IPv4) bool
}

// AttachResponder hooks a responder into the host's receive path, chaining
// any existing observer. Responses are registered with cap under class.
func AttachResponder(eng sim.Proc, h *device.Host, cap *capture.Capture, class string) *Responder {
	r := &Responder{
		eng: eng, host: h, cap: cap, class: class,
		flows: make(map[netaddr.FlowKey]uint64),
	}
	prev := h.OnReceive
	h.OnReceive = func(pkt *packet.Packet, now sim.Time) {
		if prev != nil {
			prev(pkt, now)
		}
		r.respond(pkt)
	}
	return r
}

func (r *Responder) respond(pkt *packet.Packet) {
	if pkt.IP.Src == r.host.IP {
		return // don't answer our own traffic
	}
	if r.RespondTo != nil && !r.RespondTo(pkt.IP.Src) {
		return
	}
	key := pkt.FlowKey().Reverse()
	flags := uint8(packet.FlagACK)
	seq := 1
	if pkt.TCP != nil && pkt.TCP.Flags&packet.FlagSYN != 0 {
		flags = packet.FlagSYN | packet.FlagACK
		seq = 0
	}
	resp := packet.NewTCP(key.Src, key.Dst, key.SrcPort, key.DstPort, flags)
	id, ok := r.flows[key]
	if !ok {
		id = r.cap.NewFlow(key, r.class, 1).ID
		r.flows[key] = id
	}
	resp.Meta.FlowID, resp.Meta.Seq, resp.Meta.SentAt = id, seq, r.eng.Now()
	r.cap.RecordSend(resp)
	r.Sent++
	r.host.Send(resp)
}

// Mark is one instant event a tracer recorded.
type Mark struct {
	Name string
	At   sim.Time
}

// Marks returns tr's marks in order, read back from its Chrome trace.
func Marks(t testing.TB, tr *telemetry.Tracer) []Mark {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, telemetry.NamedTrace{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			TS       float64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var marks []Mark
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "i" {
			marks = append(marks, Mark{ev.Name, sim.Time(math.Round(ev.TS * float64(time.Microsecond)))})
		}
	}
	return marks
}
