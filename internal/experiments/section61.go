package experiments

import (
	"io"
	"time"

	"scotch/internal/capture"
	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/sim"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Maximum flow rule insertion rate at the Pica8 switch",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Interaction of the data path and the control path (loss vs insertion rate)",
		Run:   runFig10,
	})
}

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

func runFig9(w io.Writer, _ *Probes) error {
	// "We let the Ryu controller generate flow rules at a constant rate
	// and send them to the Pica8 switch... there is no data traffic."
	rates := []float64{250, 500, 1000, 1500, 2000, 2250, 2500, 3000}
	t := newTable(w, "attempted_insert_per_s", "successful_insert_per_s")
	const dur = 10 * time.Second
	for _, r := range rates {
		eng := sim.New(9)
		prof := device.Pica8Profile()
		prof.TableCapacity = 0 // isolate OFA throughput from TCAM size
		sw := device.NewSwitch(eng, "pica8", 1, prof)
		driveInserts(eng, sw, r, dur)
		eng.RunUntil(dur)
		t.row(int(r), float64(sw.Stats.RulesInstalled)/dur.Seconds())
	}
	t.flush()
	return nil
}

func runFig10(w io.Writer, _ *Probes) error {
	// Data traffic through a pre-installed rule while the controller
	// inserts unrelated rules at a given rate; measure data-path loss.
	insertRates := []float64{100, 400, 800, 1200, 1300, 1400, 1600, 2000}
	dataRates := []float64{500, 1000, 2000}
	t := newTable(w, "insert_per_s", "loss_500pps", "loss_1000pps", "loss_2000pps")
	const dur = 5 * time.Second
	for _, ir := range insertRates {
		row := []any{int(ir)}
		for _, dr := range dataRates {
			eng := sim.New(10)
			net := topo.New(eng)
			prof := device.Pica8Profile()
			prof.TableCapacity = 0
			sw := net.AddSwitch("pica8", prof)
			src := net.AddHost("src", netaddr.MakeIPv4(10, 0, 0, 1))
			dst := net.AddHost("dst", netaddr.MakeIPv4(10, 0, 1, 1))
			net.AttachHost(src, sw, device.LinkConfig{})
			dstPort := net.AttachHost(dst, sw, device.LinkConfig{})

			// Pre-install the forwarding rule for the measured flow.
			pre := &openflow.FlowMod{
				Command: openflow.FlowAdd, Priority: 900,
				Match:        openflow.Match{Fields: openflow.FieldIPv4Dst, IPv4Dst: dst.IP},
				Instructions: openflow.Apply1(openflow.OutputAction(dstPort)),
			}
			b, err := openflow.Marshal(pre, 1)
			if err != nil {
				return err
			}
			sw.DeliverControl(b)
			eng.RunUntil(100 * time.Millisecond)

			cap := capture.New(eng)
			cap.Attach(dst)
			em := workload.NewEmitter(eng, src, cap)
			// Let the insertion load reach steady state before measuring
			// data-path loss (the paper measures steady state).
			driveInserts(eng, sw, ir, 2*time.Second+dur)
			eng.Schedule(2*time.Second, func() {
				em.Start(workload.Flow{
					Key: netaddr.FlowKey{Src: src.IP, Dst: dst.IP, Proto: netaddr.ProtoTCP,
						SrcPort: 9000, DstPort: 80},
					Packets:  int(dr * dur.Seconds()),
					Interval: time.Duration(float64(time.Second) / dr),
					Class:    "data",
				})
			})
			eng.RunUntil(2*time.Second + dur + time.Second)
			row = append(row, 1-cap.DeliveryRatio("data"))
		}
		t.row(row...)
	}
	t.flush()
	return nil
}
