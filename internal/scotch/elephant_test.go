package scotch

import (
	"testing"
	"time"

	"scotch/internal/controller"
	"scotch/internal/flowtable"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
)

// elephantFixture plants one overlay flow in the FlowDB and feeds
// handleStats a crafted stats reply for it, returning whether the flow
// was elected for migration.
func elephantFixture(t *testing.T, cfg Config, packets, bytes uint64) bool {
	t.Helper()
	f := newFixture(t, cfg, 2, 0)
	key := netaddr.FlowKey{
		Src: f.client.IP, Dst: f.server.IP,
		Proto: netaddr.ProtoTCP, SrcPort: 4000, DstPort: 80,
	}
	f.c.FlowDB.Put(&controller.FlowInfo{
		Key: key, FirstHop: f.edge.DPID, IngressPort: 2,
		OnOverlay: true, OverlayVSwitch: f.vs[0].DPID,
	})
	f.app.handleStats(&openflow.MultipartReply{
		MPType: openflow.MultipartFlow,
		Flows: []openflow.FlowStats{{
			TableID: 0, PacketCount: packets, ByteCount: bytes,
			Match: flowtable.ExactMatch(key),
		}},
	})
	return f.app.migrating[key]
}

// TestElephantInThirdStatsPartMigrates plants an elephant deep in a
// 1000-rule vSwitch table, where the flow-stats reply carries it in its
// third part: the poller sees each part as it arrives and must still
// elect the flow and move it to a physical path.
func TestElephantInThirdStatsPartMigrates(t *testing.T) {
	cfg := DefaultConfig()
	f := newFixture(t, cfg, 2, 0)
	key := netaddr.FlowKey{
		Src: f.client.IP, Dst: f.server.IP,
		Proto: netaddr.ProtoTCP, SrcPort: 4000, DstPort: 80,
	}
	fi := &controller.FlowInfo{
		Key: key, FirstHop: f.edge.DPID, IngressPort: 2,
		OnOverlay: true, OverlayVSwitch: f.vs[0].DPID,
	}
	f.c.FlowDB.Put(fi)
	elephant := &flowtable.Rule{Priority: 1, Match: flowtable.ExactMatch(key), Bytes: cfg.ElephantBytes + 1}
	pl := f.vs[0].Pipeline
	for i := 0; i < 1000; i++ {
		r := &flowtable.Rule{Priority: 1, Match: openflow.Match{
			Fields: openflow.FieldIPv4Src, IPv4Src: netaddr.MakeIPv4(172, 16, byte(i>>8), byte(i))}}
		if i == 950 {
			r = elephant
		}
		if err := pl.Table(0).Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	pos := 0
	for _, tbl := range pl.Tables {
		for _, r := range tbl.Rules() {
			if r == elephant && pos/flowtable.StatsPartLen != 2 {
				t.Fatalf("elephant is entry %d of the dump, not in its third part", pos)
			}
			pos++
		}
	}

	f.eng.RunUntil(3 * time.Second) // past the first 1 s elephant poll
	if !fi.Migrated || f.app.Stats.Migrated != 1 {
		t.Fatalf("elephant in the third stats part not migrated (migrated=%v, count %d)", fi.Migrated, f.app.Stats.Migrated)
	}
}

// TestElephantDetectsHighPacketCount is the §5.3 regression test: the
// large-flow identifier must select flows "with high packet counts",
// not only high byte counts. Before Config.ElephantPackets existed,
// handleStats compared ByteCount alone and this test failed.
func TestElephantDetectsHighPacketCount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ElephantBytes = 1 << 30 // unreachable: only the packet count can elect
	cfg.ElephantPackets = 100
	if !elephantFixture(t, cfg, 150, 500) {
		t.Fatal("flow with 150 packets (threshold 100) not elected for migration")
	}
}

// TestElephantPacketThresholdDefaultOff pins backward compatibility:
// with ElephantPackets at its zero default, packet counts alone must
// not elect a flow, so pre-existing byte-only deployments (and every
// prior experiment output) are unchanged.
func TestElephantPacketThresholdDefaultOff(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ElephantBytes = 1 << 30
	if elephantFixture(t, cfg, 1<<20, 500) {
		t.Fatal("packet count elected a flow with ElephantPackets=0 (default off)")
	}
}

// TestElephantByteThresholdStillWorks guards the original byte-count
// path alongside the new predicate.
func TestElephantByteThresholdStillWorks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ElephantPackets = 1 << 30
	if !elephantFixture(t, cfg, 3, cfg.ElephantBytes+1) {
		t.Fatal("flow over the byte threshold not elected for migration")
	}
}
