package experiments

import (
	"io"
	"time"

	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/sim"
	"scotch/internal/workload"
)

// driveInserts sends distinct FlowMods to the switch at the attempted rate
// for dur. Rules carry the paper's 10-second timeout.
func driveInserts(eng *sim.Engine, sw *device.Switch, rate float64, dur time.Duration) {
	i := 0
	tick := eng.Every(time.Duration(float64(time.Second)/rate), func() {
		i++
		fm := &openflow.FlowMod{
			Command:     openflow.FlowAdd,
			Priority:    500,
			IdleTimeout: 10,
			HardTimeout: 10,
			Match: openflow.Match{
				Fields:  openflow.FieldIPv4Src | openflow.FieldIPv4Dst,
				IPv4Src: netaddr.IPv4(i),
				IPv4Dst: netaddr.MakeIPv4(10, 0, 1, 1),
			},
			Instructions: openflow.Apply1(openflow.OutputAction(3)),
		}
		b, err := openflow.Marshal(fm, uint32(i))
		if err != nil {
			panic(err)
		}
		sw.DeliverControl(b)
	})
	eng.Schedule(dur, tick.Stop)
}

// fig9Row is one attempted insertion rate and the rate that succeeded.
type fig9Row struct {
	outcome
	attempted, successful float64
}

func runFig9(w io.Writer, p *Probes) (any, error) {
	// "We let the Ryu controller generate flow rules at a constant rate
	// and send them to the Pica8 switch... there is no data traffic."
	rates := []float64{250, 500, 1000, 1500, 2000, 2250, 2500, 3000}
	t := newTable(w, "attempted_insert_per_s", "successful_insert_per_s")
	prof := device.Pica8Profile()
	prof.TableCapacity = 0 // isolate OFA throughput from TCAM size
	var rows []fig9Row
	for _, rate := range rates {
		r := build(spec{fabric: bareSwitch, profile: prof, horizon: 10 * time.Second, seed: 9, probes: p})
		driveInserts(r.eng, r.edge, rate, r.spec.horizon)
		row := fig9Row{r.drive(), rate, float64(r.edge.Stats.RulesInstalled) / r.spec.horizon.Seconds()}
		t.row(int(rate), row.successful)
		rows = append(rows, row)
	}
	t.flush()
	return rows, nil
}

func runFig10(w io.Writer, p *Probes) (any, error) {
	// Data traffic through a pre-installed rule while the controller
	// inserts unrelated rules at a given rate; measure data-path loss.
	insertRates := []float64{100, 400, 800, 1200, 1300, 1400, 1600, 2000}
	dataRates := []float64{500, 1000, 2000}
	t := newTable(w, "insert_per_s", "loss_500pps", "loss_1000pps", "loss_2000pps")
	prof := device.Pica8Profile()
	prof.TableCapacity = 0
	for _, ir := range insertRates {
		row := []any{int(ir)}
		for _, dr := range dataRates {
			r := build(spec{fabric: bareSwitch, profile: prof, clients: 1, servers: 1,
				horizon: 7 * time.Second, drain: time.Second, seed: 10, probes: p})
			src, dst := r.clients[0], r.servers[0]

			// Pre-install the forwarding rule for the measured flow.
			at, _ := r.net.HostAttach(dst.IP)
			pre := &openflow.FlowMod{
				Command: openflow.FlowAdd, Priority: 900,
				Match:        openflow.Match{Fields: openflow.FieldIPv4Dst, IPv4Dst: dst.IP},
				Instructions: openflow.Apply1(openflow.OutputAction(at.Port)),
			}
			b, err := openflow.Marshal(pre, 1)
			if err != nil {
				return nil, err
			}
			r.edge.DeliverControl(b)
			r.eng.RunUntil(100 * time.Millisecond)

			em := r.emitter(src)
			// Let the insertion load reach steady state before measuring
			// data-path loss (the paper measures steady state): the data
			// flow starts warm in and runs to the horizon.
			const warm = 2 * time.Second
			dur := r.spec.horizon - warm
			driveInserts(r.eng, r.edge, ir, r.spec.horizon)
			r.eng.Schedule(warm, func() {
				em.Start(workload.Flow{
					Key: netaddr.FlowKey{Src: src.IP, Dst: dst.IP, Proto: netaddr.ProtoTCP,
						SrcPort: 9000, DstPort: 80},
					Packets:  int(dr * dur.Seconds()),
					Interval: time.Duration(float64(time.Second) / dr),
					Class:    "data",
				})
			})
			r.drive()
			row = append(row, 1-r.cap.DeliveryRatio("data"))
		}
		t.row(row...)
	}
	t.flush()
	return nil, nil
}
