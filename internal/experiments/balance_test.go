package experiments

import (
	"testing"

	"scotch/internal/balance"
)

// TestElasticUnderMigration pins the joint balancer's headline property:
// the vSwitch pool grows while a pod migration lands in between — both
// actuation paths active over the same rig — and none of it costs a
// single client flow (replica capacity is infinite, so any loss would be
// the balancer's fault).
func TestElasticUnderMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := elasticUnderMigrationPoint(nil, 23)

	if res.grows < 2 {
		t.Errorf("grows = %d, want >= 2", res.grows)
	}
	if res.migrations < 1 {
		t.Errorf("migrations = %d, want >= 1", res.migrations)
	}
	if res.drains < 1 {
		t.Errorf("drains = %d, want >= 1", res.drains)
	}
	if res.finalPool != 2 {
		t.Errorf("final pool = %d, want back at the floor of 2", res.finalPool)
	}

	// The interleaving is the point: grow, then migrate, then grow again.
	switch {
	case res.firstGrow == 0 || res.firstMigrate == 0 || res.growAfterMigrate == 0:
		t.Errorf("missing actions: first_grow=%v first_migrate=%v grow_after_migrate=%v",
			res.firstGrow, res.firstMigrate, res.growAfterMigrate)
	case !(res.firstGrow < res.firstMigrate && res.firstMigrate < res.growAfterMigrate):
		t.Errorf("want grow < migrate < grow, got %v < %v < %v",
			res.firstGrow, res.firstMigrate, res.growAfterMigrate)
	}

	// Pod 0 (the surging pod) must have left its overloaded home.
	last := len(res.owners) - 1
	if res.owners[0] != 0 || res.owners[last] != 1 {
		t.Errorf("pod0 owner path %v, want 0 -> 1", res.owners)
	}

	if res.clientSent == 0 {
		t.Fatal("no client flows ran")
	}
	if res.clientFail != 0 {
		t.Errorf("client flow loss = %.4f, want exactly 0", res.clientFail)
	}
}

// TestReplicaScaleOut pins the escalation rung: a flash crowd saturates
// both replicas, the SLO burn signal (not load alone) triggers a replica
// spawn, migrations rebalance pods onto the new replica, the burn
// recovers, and the idle cluster retires back to the floor.
func TestReplicaScaleOut(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := replicaScaleOutPoint(nil, 31)

	if res.spawns != 1 {
		t.Errorf("spawns = %d, want exactly 1 (MaxReplicas bounds repeats)", res.spawns)
	}
	if res.migrations < 2 {
		t.Errorf("migrations = %d, want >= 2 (rebalance onto the spawned replica)", res.migrations)
	}
	if res.retires != 1 {
		t.Errorf("retires = %d, want 1 (idle cluster returns to the floor)", res.retires)
	}
	if res.finalAlive != 2 {
		t.Errorf("final alive replicas = %d, want 2", res.finalAlive)
	}

	if res.verdictPath != "healthy->burning->healthy" {
		t.Errorf("client-p99 verdict path = %q, want healthy->burning->healthy", res.verdictPath)
	}
	if res.peakBurnLong < 2 {
		t.Errorf("peak long-window burn = %.1f, want >= 2 (the spawn threshold)", res.peakBurnLong)
	}

	// The spawn must precede every applied migration to the new replica:
	// burn escalates, then rebalancing uses the new capacity.
	var spawnAt, firstMigrate int64 = -1, -1
	for _, d := range res.log {
		if !d.Applied {
			continue
		}
		switch d.Action {
		case balance.ActionSpawnReplica:
			if spawnAt < 0 {
				spawnAt = int64(d.At)
			}
		case balance.ActionMigrate:
			if firstMigrate < 0 {
				firstMigrate = int64(d.At)
			}
		}
	}
	if spawnAt < 0 || firstMigrate < 0 || spawnAt >= firstMigrate {
		t.Errorf("want spawn before first migration, got spawn=%d migrate=%d", spawnAt, firstMigrate)
	}
}
