package experiments

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"scotch/internal/balance"
	"scotch/internal/obs"
	"scotch/internal/sim"
)

// claim is one claim the paper or DESIGN.md makes about an experiment,
// checked on that experiment's memoized typed result.
type claim struct {
	name   string // subtest name: the test the row replaced
	id     string // experiment whose result the row reads
	source string // PAPER.md section or DESIGN.md safety claim
	text   string
	// rerun, when set, is the row's point function (see point): the row
	// is checked again at each of sweepSeeds on the spec its memoized
	// result's outcome ran, with only the seed changed.
	rerun func(spec) any
	check func(t checker, res any)
}

// sweepSeeds are the fresh seeds the rows with a rerun are checked at
// too, beyond the seed their experiment runs.
var sweepSeeds = []int64{100, 101, 102, 103, 104, 105}

// point makes a point function a claim's rerun.
func point[R any](run func(spec) R) func(spec) any {
	return func(s spec) any { return run(s) }
}

// ran is the spec an outcome, or a result embedding one, ran.
func (o outcome) ran() spec { return o.spec }

// seedOf is the seed res ran at: its outcome's, or its first point's for
// the experiments that run several points at one seed.
func seedOf(t *testing.T, res any) int64 {
	switch r := res.(type) {
	case interface{ ran() spec }:
		return r.ran().seed
	case []fig9Row:
		return r[0].spec.seed
	case []chaosVSwitchRow:
		return r[0].base.spec.seed
	case []outcome:
		return r[0].spec.seed
	case devolveAblationResult:
		return r.centralized.spec.seed
	case multitenantResult:
		return r.quiet.spec.seed
	}
	t.Fatalf("a %T carries no outcome", res)
	return 0
}

// checker is one check of a row: its test, and the seed of the outcome
// it reads, which every line bound and is log names.
type checker struct {
	*testing.T
	seed int64
}

// claims is the one-seed claims table. Every check logs its measured
// value, bound and margin, so `go test -v -run TestClaims` prints it.
var claims = []claim{
	{"Fig9ShapeMatchesPaper", "fig9", "paper §6.1",
		"insertion is loss-free up to 2000/s; overdriven, the successful rate flattens near 1000/s", nil,
		func(t checker, res any) {
			rows := res.([]fig9Row)
			bound(t, "rows", len(rows), ">=", 1)
			for _, r := range rows {
				at := fmt.Sprintf("successful_insert_per_s at %v/s", r.attempted)
				switch {
				case r.attempted <= 2000:
					bound(t, at, r.successful, ">=", r.attempted*0.97)
				case r.attempted >= 2250:
					bound(t, at, r.successful, ">=", 900)
					bound(t, at, r.successful, "<=", 1100)
				}
			}
		}},
	{"ChaosVSwitchBound", "chaos-vswitch", "paper §5.6",
		"with a primary mesh vSwitch dead from 4s at 2000 attack flows/s, backup promotion keeps client failure within 2x of no fault", nil,
		func(t checker, res any) {
			var row chaosVSwitchRow
			for _, r := range res.([]chaosVSwitchRow) {
				if r.base.spec.attack == 2000 {
					row = r
				}
			}
			_ = bound(t, "failover_swaps", row.chaos.app.FailoverSwaps, ">", 0) &&
				bound(t, "faults_injected (crash + restart)", row.chaos.injected, "==", uint64(row.chaos.planned)) &&
				bound(t, "nofault_client_fail", row.base.fail("client"), ">", 0) &&
				bound(t, "chaos_client_fail", row.chaos.fail("client"), "<=", 2*row.base.fail("client"))
		}},
	{"ChaosPartitionBound", "chaos-partition", "DESIGN.md §8 (generation fencing, OF 1.3 §6.3)",
		"a partitioned master is detected within 250ms and its 3 replayed stale claims are fenced", point(chaosPartitionPoint),
		func(t checker, res any) {
			r := res.(failoverResult)
			if !bound(t, "failovers", r.co.Failovers, "==", 1) {
				return
			}
			bound(t, "detect_ms", r.detectMs, ">", 0)
			bound(t, "detect_ms", r.detectMs, "<=", 250+1)
			bound(t, "handoff_ms", r.handoffMs, ">=", r.detectMs)
			bound(t, "stale_claims_fenced (pod0 edge + 2 vSwitches)", r.staleFenced, "==", 3)
			bound(t, "client_fail_frac", r.fail("client"), "<=", 0.05)
			bound(t, "faults_injected (partition + heal)", r.injected, "==", uint64(r.planned))
		}},
	{"ChaosChurnConverges", "chaos-churn", "paper §5.5",
		"under access-link flaps the overlay deploys and withdraws once per flap and ends withdrawn", nil,
		func(t checker, res any) {
			r := res.(outcome)
			if !bound(t, "link_flaps", r.planned/2, ">=", 2) {
				return
			}
			bound(t, "activations", r.app.Activations, ">=", 2)
			bound(t, "withdrawals", r.app.Withdrawals, ">=", 2)
			bound(t, "activations", r.app.Activations, "==", r.app.Withdrawals)
			is(t, "overlay_active_at_end", r.active, false)
			bound(t, "faults_injected (down + up per flap)", r.injected, "==", uint64(r.planned))
		}},
	{"ClusterScaleImprovement", "cluster-scale", "DESIGN.md §3 (internal/cluster), paper §7",
		"at flash-crowd saturation four replicas deliver at least twice the flows of one and drop no punt", nil,
		func(t checker, res any) {
			var one, four outcome
			for _, r := range res.([]outcome) {
				switch r.spec.replicas {
				case 1:
					one = r
				case 4:
					four = r
				}
			}
			delivered := func(o outcome) int { return o.flows["crowd"].delivered }
			rate := func(o outcome) float64 { return float64(delivered(o)) / o.spec.horizon.Seconds() }
			if !bound(t, "delivered_flows at 1 replica", delivered(one), ">", 0) {
				return
			}
			bound(t, "delivered_flows at 4 replicas", delivered(four), ">=", 2*delivered(one))
			bound(t, "success_flows_per_s at 4 replicas", rate(four), ">=", 2*rate(one))
			bound(t, "replica_queue_drops at 4 replicas", four.queueDrops, "==", 0)
		}},
	{"ClusterMigrateZeroLoss", "cluster-migrate", "DESIGN.md §13 (migration)",
		"the hot pod moves to the idle replica mid-surge and no client flow is lost across the handoff", nil,
		func(t checker, res any) {
			r := res.(clusterMigrateResult)
			_ = bound(t, "migrations", r.co.Migrations, ">=", 1) &&
				bound(t, "owner_after", r.ownerAfter, "!=", r.spec.homes[0]) &&
				bound(t, "client_flows", r.flows["client"].sent, "!=", 0) &&
				bound(t, "client_fail_frac", r.fail("client"), "==", 0)
		}},
	{"ClusterFailoverDetection", "cluster-failover", "DESIGN.md §8 (failover)",
		"a killed replica is detected within the heartbeat window and its shard re-mastered without client loss", point(clusterFailoverPoint),
		func(t checker, res any) {
			r := res.(failoverResult)
			if !bound(t, "failovers", r.co.Failovers, "==", 1) {
				return
			}
			// Detection is heartbeat-driven: at most misses*interval + one
			// interval of phase slack (default 3x100ms + 100ms).
			bound(t, "detect_ms", r.detectMs, ">", 0)
			bound(t, "detect_ms", r.detectMs, "<=", 400)
			bound(t, "handoff_ms", r.handoffMs, ">=", r.detectMs)
			bound(t, "client_fail_frac", r.fail("client"), "==", 0)
		}},
	{"DevolveAblationBounds", "devolve-ablation", "DESIGN.md §11",
		"devolved to a pool of 4, controller Packet-Ins drop to 1.25/pool of centralized and the base tenant's p99 stays within 1.1x", nil,
		func(t checker, res any) {
			r := res.(devolveAblationResult)
			if !bound(t, "packet_ins_centralized", r.centralized.packetIns, ">", 0) {
				return
			}
			bound(t, "pi_ratio", r.piRatio, "<=", 1.25/float64(devolvePool))
			if !bound(t, "base_p99_ratio", r.p99Ratio, ">", 0) {
				return
			}
			bound(t, "base_p99_ratio", r.p99Ratio, "<=", 1.1)
			bound(t, "devolve_hits", r.hits, ">", 0)
			for i, arm := range []latResult{r.centralized, r.devolved} {
				name := []string{"centralized", "devolved"}[i]
				for _, row := range arm.rows {
					bound(t, name+" "+row.tenant+" flows", row.flows, ">", 0)
				}
				hasTenants(t, name, arm.rows, "base", "crowd", "ddos")
			}
		}},
	{"DevolveInvalidateNoStaleDelivery", "devolve-invalidate", "DESIGN.md §11 (invalidation)",
		"a revoked tenant gains no local hit, stale policy generations are fenced, and traffic completes centrally", nil,
		func(t checker, res any) {
			r := res.(devolveInvalidateResult)
			if !bound(t, "web hits_at_revoke", r.webHitsAtRevoke, ">", 0) {
				return
			}
			bound(t, "web hits_final", r.webHitsFinal, "==", r.webHitsAtRevoke)
			bound(t, "bulk hits_final", r.bulkHitsFinal, ">", 0)
			bound(t, "stale_rejected (replayed table + post-drain replay)", r.staleRejected, ">=", 2)
			is(t, "drain_flushed", r.drainFlushed, true)
			is(t, "drain_fences_stale", r.drainStaleOK, true)
			bound(t, "web completion", r.completion("web"), ">=", 0.9)
			bound(t, "bulk completion", r.completion("bulk"), ">=", 0.9)
		}},
	{"ElasticGrowsAndDrains", "elastic", "DESIGN.md §9, paper §3",
		"the pool grows under a ramping attack, drains back to its floor, and loses no flow started in the drain window", nil,
		func(t checker, res any) {
			r := res.(elasticResult)
			_ = bound(t, "peak", slices.Max(r.sizes), ">=", 2) &&
				bound(t, "final", r.final, "==", 1) &&
				bound(t, "grows", r.bal.Grows, ">", 0) &&
				bound(t, "drains_started", r.bal.Drains, ">", 0) &&
				bound(t, "members_added", r.app.VSwitchesAdded, "==", r.bal.Grows) &&
				bound(t, "members_drained", r.app.VSwitchesDrained, "==", r.bal.Drains) &&
				bound(t, "drain_window_fail", r.fail("drainprobe"), "==", 0) &&
				// The steady client shares the switch with a 3000 flows/s
				// attack; its loss stays inside the protected envelope.
				bound(t, "client_fail", r.fail("client"), "<=", 0.15)
		}},
	{"ObsSLOBurnAndRecover", "obs-slo", "DESIGN.md §12",
		"the crowd's p99 SLO burns through the flash crowd and recovers; the base tenant recovers first", nil,
		func(t checker, res any) {
			r := res.(obsSLOResult)
			base, crowd := r.digest.SLO("base-p99"), r.digest.SLO("crowd-p99")
			if !bound(t, "samples", r.digest.Samples, ">", 0) || !is(t, "both SLO reports", crowd != nil && base != nil, true) {
				return
			}
			is(t, "crowd verdict_path", crowd.VerdictPath, "healthy->burning->healthy")
			is(t, "crowd final verdict", crowd.Verdict, obs.Healthy)
			if !bound(t, "crowd transitions", len(crowd.Transitions), "==", 2) {
				return
			}
			bound(t, "crowd peak_burn_short", crowd.PeakBurnShort, ">=", 1)
			bound(t, "crowd peak_burn_long", crowd.PeakBurnLong, ">=", 1)
			bound(t, "crowd peak_window_p99 (s)", crowd.PeakWindowQuantileSeconds, ">", 0.05)
			is(t, "base final verdict", base.Verdict, obs.Healthy)
			// Isolation: once the overlay engages, base recovers while the
			// crowd keeps burning until the event ends.
			if n := len(base.Transitions); n > 0 {
				bound(t, "base recovery - crowd recovery (s)",
					(base.Transitions[n-1].At - crowd.Transitions[1].At).Seconds(), "<", 0)
			}
		}},
	{"MultitenantIsolation", "scenario-multitenant", "paper §3, §5",
		"a 1500 flows/s DDoS tenant moves the baseline tenant's p99 flow-setup latency by less than 2x", nil,
		func(t checker, res any) {
			r := res.(multitenantResult)
			if !bound(t, "base_p99_ratio", r.p99Ratio, ">", 0) {
				return
			}
			bound(t, "base_p99_ratio", r.p99Ratio, "<", 2)
			bound(t, "pool_peak", r.peakPool, ">=", 2)
			for _, row := range r.attacked.rows {
				if !is(t, "expected tenant "+row.tenant, slices.Contains([]string{"base", "crowd", "ddos"}, row.tenant), true) {
					continue
				}
				bound(t, row.tenant+" flows", row.flows, ">", 0)
				bound(t, row.tenant+" p50_ms", row.p50ms, ">", 0)
				bound(t, row.tenant+" p99_ms", row.p99ms, ">=", row.p50ms)
			}
			hasTenants(t, "attacked run", r.attacked.rows, "base", "crowd", "ddos")
		}},
	{"FattreeScenario", "scenario-fattree", "paper §5.6",
		"on a k=8 fat-tree both tenants deliver the bulk of their flows through the overlay", nil,
		func(t checker, res any) {
			r := res.(latResult)
			bound(t, "base_completion", r.completion("base"), ">=", 0.9)
			bound(t, "crowd_completion", r.completion("crowd"), ">=", 0.8)
			for _, row := range r.rows {
				bound(t, row.tenant+" flows", row.flows, ">", 0)
				bound(t, row.tenant+" p99_ms", row.p99ms, ">", 0)
			}
			hasTenants(t, "run", r.rows, "base", "crowd")
		}},
	{"ReplayScenario", "scenario-replay", "paper §6",
		"the embedded trace schedules fully and nearly every flow delivers, for all three tenant labels", nil,
		func(t checker, res any) {
			r := res.(replayResult)
			if !bound(t, "trace_events", r.events, ">", 0) || !bound(t, "scheduled", r.scheduled, "==", r.events) {
				return
			}
			var total uint64
			for _, row := range r.rows {
				total += row.flows
			}
			hasTenants(t, "replay", r.rows, "web", "batch", "replay")
			bound(t, "flows observed", float64(total), ">=", 0.9*float64(r.events))
			bound(t, "merged samples", r.merged.flows, "==", total)
		}},
	{"ElasticUnderMigration", "elastic-under-migration", "DESIGN.md §13",
		"the pool grows, a pod migrates, the pool grows again, and none of it costs a client flow", nil,
		func(t checker, res any) {
			r := res.(elasticUnderMigrationResult)
			bound(t, "grows", r.bal.Grows, ">=", 2)
			bound(t, "migrations", r.bal.Migrations, ">=", 1)
			bound(t, "drains", r.bal.Drains, ">=", 1)
			bound(t, "final_pool (the floor)", r.finalPool, "==", 2)
			// The interleaving is the point: grow, then migrate, then grow.
			if bound(t, "first_grow (s)", r.firstGrow.Seconds(), "!=", 0) &&
				bound(t, "first_migrate (s)", r.firstMigrate.Seconds(), "!=", 0) &&
				bound(t, "grow_after_migrate (s)", r.growAfterMigrate.Seconds(), "!=", 0) {
				bound(t, "first_migrate - first_grow (s)", (r.firstMigrate - r.firstGrow).Seconds(), ">", 0)
				bound(t, "grow_after_migrate - first_migrate (s)", (r.growAfterMigrate - r.firstMigrate).Seconds(), ">", 0)
			}
			// Pod 0, the surging pod, must have left its overloaded home.
			bound(t, "pod0 first owner", r.owners[0], "==", 0)
			bound(t, "pod0 last owner", r.owners[len(r.owners)-1], "==", 1)
			_ = bound(t, "client_flows", r.flows["client"].sent, "!=", 0) &&
				bound(t, "client_fail", r.fail("client"), "==", 0)
		}},
	{"ReplicaScaleOut", "replica-scale-out", "DESIGN.md §13",
		"SLO burn, not load alone, spawns one replica; migrations rebalance onto it, burn recovers, and the idle cluster retires to its floor", nil,
		func(t checker, res any) {
			r := res.(replicaScaleOutResult)
			bound(t, "spawns (MaxReplicas bounds repeats)", r.bal.Spawns, "==", 1)
			bound(t, "migrations (onto the spawned replica)", r.bal.Migrations, ">=", 2)
			bound(t, "retires", r.bal.Retires, "==", 1)
			bound(t, "final_alive", r.finalAlive, "==", 2)
			is(t, "client-p99 verdict_path", r.verdictPath, "healthy->burning->healthy")
			bound(t, "peak_burn_long (the spawn threshold)", r.peakBurnLong, ">=", 2)
			// Burn escalates to a spawn, then rebalancing uses the capacity.
			spawnAt, firstMigrate := sim.Time(-1), sim.Time(-1)
			for _, d := range r.log {
				switch {
				case !d.Applied:
				case d.Action == balance.ActionSpawnReplica && spawnAt < 0:
					spawnAt = d.At
				case d.Action == balance.ActionMigrate && firstMigrate < 0:
					firstMigrate = d.At
				}
			}
			bound(t, "spawn (s)", spawnAt.Seconds(), ">=", 0)
			bound(t, "first migration (s)", firstMigrate.Seconds(), ">=", 0)
			bound(t, "first migration - spawn (s)", (firstMigrate - spawnAt).Seconds(), ">", 0)
		}},
}

// TestClaims checks every row on its experiment's memoized result. Each
// selected row adds its id to one batch and pauses in t.Parallel until
// TestClaims returns; the first to resume has the memo run the whole
// batch. So a full run runs each id once, and `-run TestClaims/<row>`
// runs only that row's experiment. A row with a rerun is then checked
// again at each of sweepSeeds, in a subtest named for the seed. Under
// -short only the rows whose ids are in shortIDs run, without their
// sweeps, and under the race detector chaos-vswitch's six 15s runs are
// skipped.
func TestClaims(t *testing.T) {
	var (
		batch []string
		mu    sync.Mutex // keeps each row's log lines together
	)
	for _, c := range claims {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && !slices.Contains(shortIDs, c.id) || raceEnabled && c.id == "chaos-vswitch" {
				t.Skipf("%s is not run under -short or the race detector", c.id)
			}
			batch = append(batch, c.id)
			t.Parallel()
			res := memoRuns(t, batch...)[slices.Index(batch, c.id)].result
			check := func(t *testing.T, res any) {
				mu.Lock()
				defer mu.Unlock()
				seed := seedOf(t, res)
				t.Logf("%s [%s] at seed %d: %s", c.id, c.source, seed, c.text)
				c.check(checker{t, seed}, res)
			}
			check(t, res)
			if c.rerun == nil || testing.Short() {
				return
			}
			s := res.(interface{ ran() spec }).ran()
			for _, seed := range sweepSeeds {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					s.seed = seed
					check(t, c.rerun(s))
				})
			}
		})
	}
}

// number is what a claim bounds.
type number interface{ ~int | ~uint64 | ~float64 }

// bound checks got against op ("<", "<=", ">", ">=", "==" or "!=") limit,
// logs the value with its bound and the margin by which it holds, and
// reports whether it held.
func bound[T number](t checker, what string, got T, op string, limit T) bool {
	t.Helper()
	margin := float64(got) - float64(limit)
	ok := map[string]bool{"<": margin < 0, "<=": margin <= 0, ">": margin > 0,
		">=": margin >= 0, "==": margin == 0, "!=": margin != 0}[op]
	if op[0] == '<' {
		margin = -margin
	}
	t.Logf("seed %d: %s = %v, want %s %v (margin %.4g)", t.seed, what, got, op, limit, margin)
	if !ok {
		t.Errorf("seed %d: %s = %v, want %s %v", t.seed, what, got, op, limit)
	}
	return ok
}

// is checks got == want, logs the value, and reports whether it held.
func is[T comparable](t checker, what string, got, want T) bool {
	t.Helper()
	t.Logf("seed %d: %s = %v, want %v", t.seed, what, got, want)
	if got != want {
		t.Errorf("seed %d: %s = %v, want %v", t.seed, what, got, want)
	}
	return got == want
}

// hasTenants checks that rows hold a latency row for every tenant in want.
func hasTenants(t checker, what string, rows []latRow, want ...string) {
	t.Helper()
	for _, tenant := range want {
		is(t, what+" has tenant "+tenant, slices.ContainsFunc(rows, func(r latRow) bool { return r.tenant == tenant }), true)
	}
}
