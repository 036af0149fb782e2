package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Experiment is one reproducible measurement.
type Experiment struct {
	ID    string
	Title string
	// Run executes the experiment, writing its result table to w; every
	// rig it builds attaches p's instruments (nil p: none). It returns
	// the typed result the table was printed from (nil: table only).
	Run func(w io.Writer, p *Probes) (any, error)
}

// registry lists every experiment in the order All returns them: the
// order scotchsim all prints and testdata/all.golden records.
var registry = []Experiment{
	{"ablation-fanout", "Ablation: select-group fan-out width (1 vSwitch vs load-balanced mesh)", runAblationFanout},
	{"ablation-elephant-threshold", "Ablation: elephant migration threshold sweep", runAblationElephant},
	{"ablation-scheduler", "Ablation: install pacing rate R vs insertion failures and data-path stall", runAblationScheduler},
	{"ablation-fifo-scheduler", "Ablation: priority classes + per-port RR vs a single FIFO install queue", runAblationFIFO},
	{"ablation-withdrawal", "Ablation: automatic withdrawal vs leaving the overlay engaged forever", runAblationWithdrawal},
	{"elastic-under-migration", "Joint balancer: vSwitch pool grows while a pod migration is in flight, zero client-flow loss (beyond paper, §3+§7)", runElasticUnderMigration},
	{"replica-scale-out", "Joint balancer: flash crowd saturates the cluster, SLO burn escalates to a replica spawn, burn recovers (beyond paper, §7)", runReplicaScaleOut},
	{"chaos-vswitch", "Mesh vSwitch crashes mid-attack: backup promotion bounds client damage (§5.6)", runChaosVSwitch},
	{"chaos-partition", "Controller partition and heal: failover detection bound and stale-master fencing (§5, OF 1.3 §6.3)", runChaosPartition},
	{"chaos-churn", "Continuous access-link flaps: overlay deploy/withdraw converges (§5.5)", runChaosChurn},
	{"cluster-scale", "Controller cluster: successful-flow rate vs replica count under a flash crowd (beyond paper, §7)", runClusterScale},
	{"cluster-migrate", "Controller cluster: load-triggered switch migration during a surge, client flow loss (beyond paper, §7)", runClusterMigrate},
	{"cluster-failover", "Controller cluster: replica kill, failure detection and mastership failover time (beyond paper, §7)", runClusterFailover},
	{"devolve-ablation", "Control devolution ablation: devolved vs centralized under the multi-tenant DDoS mix", runDevolveAblation},
	{"devolve-invalidate", "Devolution policy invalidation: live revoke, stale-generation fencing, and drain flush deliver no stale policy", runDevolveInvalidate},
	{"elastic", "Elastic vSwitch pool: a pool-only balancer grows the mesh under a ramping attack and drains it back (§3)", runElastic},
	{"fig15", "Trace-driven flash crowd on a leaf-spine DC: application performance (reconstructed)", runFig15},
	{"obs-slo", "Observatory SLO burn: a flash crowd drives a tenant's error budget through burning and back", runObsSLO},
	{"fig8", "Policy consistency across migration (§5.4): same-middlebox vs naive rerouting", runFig8},
	{"scenario-multitenant", "Multi-tenant scenario: DDoS tenant must not shift the baseline tenant's latency CDF (§3, §5)", runScenarioMultitenant},
	{"scenario-fattree", "Flash crowd on a k=8 fat-tree: per-tenant flow-setup latency CDFs under Scotch (§5.6)", runScenarioFattree},
	{"scenario-replay", "Trace-file replay: external CSV trace drives the rig, per-tenant latency CDFs (§6)", runScenarioReplay},
	{"fig3", "Client flow failure fraction vs attack rate (HP Procurve, Pica8, OVS)", runFig3},
	{"fig4", "Control path profiling: Packet-In rate = rule install rate = success rate (Pica8)", runFig4},
	{"table1", "Calibrated switch profiles (testbed equipment stand-ins)", runTable1},
	{"fig9", "Maximum flow rule insertion rate at the Pica8 switch", runFig9},
	{"fig10", "Interaction of the data path and the control path (loss vs insertion rate)", runFig10},
	{"fig11", "Ingress-port differentiation under attack (reconstructed from §6 roadmap)", runFig11},
	{"fig12", "Overlay control-plane capacity vs vSwitch pool size (reconstructed)", runFig12},
	{"fig13", "Large-flow migration moves bytes back to the physical network (reconstructed)", runFig13},
	{"fig14", "Extra relay delay of the overlay path (reconstructed)", runFig14},
}

// All returns every experiment in registry order.
func All() []Experiment { return append([]Experiment(nil), registry...) }

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// table is a small column-aligned printer for experiment output.
type table struct {
	w   *tabwriter.Writer
	out io.Writer
}

func newTable(w io.Writer, headers ...string) *table {
	t := &table{w: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0), out: w}
	for i, h := range headers {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		fmt.Fprint(t.w, h)
	}
	fmt.Fprintln(t.w)
	return t
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		switch v := c.(type) {
		case float64:
			fmt.Fprintf(t.w, "%.3f", v)
		default:
			fmt.Fprintf(t.w, "%v", v)
		}
	}
	fmt.Fprintln(t.w)
}

func (t *table) flush() { t.w.Flush() }

func banner(w io.Writer, e Experiment) {
	fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
}
