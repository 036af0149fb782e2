package experiments

import "testing"

// TestClusterScaleImprovement is the headline acceptance criterion for the
// cluster subsystem: at flash-crowd saturation, four replicas must sustain
// at least twice the successful-flow rate of a single replica.
func TestClusterScaleImprovement(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster sweep")
	}
	_, d1, r1, _ := clusterScalePoint(1, 11)
	_, d4, r4, drops4 := clusterScalePoint(4, 11)
	if d1 == 0 {
		t.Fatal("single replica delivered nothing; workload broken")
	}
	if float64(d4) < 2*float64(d1) {
		t.Errorf("4 replicas delivered %d flows vs %d on 1 replica; want >= 2x", d4, d1)
	}
	if r4 < 2*r1 {
		t.Errorf("4-replica success rate %.1f/s vs %.1f/s on 1 replica; want >= 2x", r4, r1)
	}
	if drops4 != 0 {
		t.Errorf("4 replicas dropped %d punts; the sharded cluster should absorb the crowd", drops4)
	}
}

// TestClusterMigrateZeroLoss checks the migration experiment's acceptance
// criteria: the balancer hands the hot pod to the idle replica mid-surge
// and no client flow is lost across the mastership change.
func TestClusterMigrateZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster run")
	}
	res := clusterMigratePoint(13)
	if res.migrations < 1 {
		t.Fatalf("migrations = %d, want >= 1", res.migrations)
	}
	if res.ownerAfter == res.ownerBefore {
		t.Errorf("hot pod still on replica %d after the surge", res.ownerAfter)
	}
	if res.clientSent == 0 {
		t.Fatal("no client flows emitted; workload broken")
	}
	if res.clientFailFrac != 0 {
		t.Errorf("client failure fraction = %.4f across the handoff, want 0", res.clientFailFrac)
	}
}

// TestClusterFailoverDetection checks that a killed replica is detected
// within the heartbeat window and its shard re-mastered on the survivor.
func TestClusterFailoverDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster run")
	}
	res := clusterFailoverPoint(17)
	if res.failovers != 1 {
		t.Fatalf("failovers = %d, want 1", res.failovers)
	}
	// Detection is heartbeat-driven: at most misses*interval + one interval
	// of phase slack (default 3x100ms + 100ms).
	if res.detectMs <= 0 || res.detectMs > 400 {
		t.Errorf("detection latency = %.1fms, want in (0, 400]", res.detectMs)
	}
	if res.handoffMs < res.detectMs {
		t.Errorf("handoff (%.1fms) completed before detection (%.1fms)", res.handoffMs, res.detectMs)
	}
	if res.clientFailFrac != 0 {
		t.Errorf("client failure fraction = %.4f across the failover, want 0", res.clientFailFrac)
	}
}

// TestClusterDeterminism runs the cluster experiments once under the
// parallel runner and requires each one's section of the golden file byte
// for byte.
func TestClusterDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster runs")
	}
	checkGolden(t, []string{"cluster-scale", "cluster-migrate", "cluster-failover"}, 3)
}
