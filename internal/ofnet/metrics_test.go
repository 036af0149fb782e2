package ofnet

import (
	"bytes"
	"testing"

	"scotch/internal/telemetry"
)

// TestBindMetricsSeries pins the exact /metrics text ofcontrollerd and
// ofagent serve: every series name, label, type and the counter behind it,
// for each binding alone and for both in one registry, where the agent's
// labelled series sort ahead of the controller's under their own # TYPE
// lines.
func TestBindMetricsSeries(t *testing.T) {
	ctrl, err := NewController("127.0.0.1:0", newReactiveHandler(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ctrl.ConnsAccepted.Store(1)
	ctrl.MsgsReceived.Store(2)
	ctrl.PacketInsRecv.Store(3)
	ctrl.WriteErrors.Store(4)
	ls := NewLiveSwitch(7, 1)
	ls.Forwarded.Store(5)
	ls.Misses.Store(6)
	ls.Installed.Store(8)
	ls.SlaveDenied.Store(9)

	const ctrlText = `# TYPE scotch_ofnet_conns_accepted_total counter
scotch_ofnet_conns_accepted_total 1
# TYPE scotch_ofnet_messages_received_total counter
scotch_ofnet_messages_received_total 2
# TYPE scotch_ofnet_packet_ins_total counter
scotch_ofnet_packet_ins_total 3
# TYPE scotch_ofnet_switches_connected gauge
scotch_ofnet_switches_connected 0
# TYPE scotch_ofnet_write_errors_total counter
scotch_ofnet_write_errors_total 4
`
	const agentText = `# TYPE scotch_agent_forwarded_total counter
scotch_agent_forwarded_total{dpid="7"} 5
# TYPE scotch_agent_misses_total counter
scotch_agent_misses_total{dpid="7"} 6
# TYPE scotch_agent_rule_count gauge
scotch_agent_rule_count{dpid="7"} 0
# TYPE scotch_agent_rules_installed_total counter
scotch_agent_rules_installed_total{dpid="7"} 8
# TYPE scotch_agent_slave_denied_total counter
scotch_agent_slave_denied_total{dpid="7"} 9
`
	for _, tc := range []struct {
		name string
		bind func(*telemetry.Registry)
		want string
	}{
		{"controller", ctrl.BindMetrics, ctrlText},
		{"agent", ls.BindMetrics, agentText},
		{"both", func(reg *telemetry.Registry) {
			ctrl.BindMetrics(reg)
			ls.BindMetrics(reg)
		}, agentText + ctrlText},
	} {
		reg := telemetry.NewRegistry()
		tc.bind(reg)
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != tc.want {
			t.Errorf("%s series:\n%s\nwant:\n%s", tc.name, buf.String(), tc.want)
		}
	}
}
