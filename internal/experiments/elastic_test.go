package experiments

import "testing"

// TestElasticGrowsAndDrains is the acceptance test for the elastic
// control loop: under the ramping attack the autoscaler must grow the
// one-primary mesh into the standby pool, and after the attack subsides
// it must drain every grown member back out, completing each drain —
// with zero loss among the client flows started inside the drain window
// (loss there would be attributable to the scale-down path, not to the
// attack).
func TestElasticGrowsAndDrains(t *testing.T) {
	res := elasticPoint(nil, 47)
	if res.peak < 2 {
		t.Fatalf("pool never grew under the attack (peak=%d)", res.peak)
	}
	if res.final != 1 {
		t.Fatalf("pool did not drain back to the floor (final=%d)", res.final)
	}
	if res.ups == 0 || res.downs == 0 {
		t.Fatalf("autoscaler idle: ups=%d downs=%d", res.ups, res.downs)
	}
	if res.added != res.ups {
		t.Fatalf("grow decisions (%d) and live adds (%d) disagree", res.ups, res.added)
	}
	if res.drained != res.downs {
		t.Fatalf("shrink decisions (%d) and completed drains (%d) disagree — a drain hung", res.downs, res.drained)
	}
	if res.probeFail != 0 {
		t.Fatalf("drain-window client loss = %.3f, want exactly 0", res.probeFail)
	}
	// The steady client shares the switch with a 3000 flows/s attack;
	// its loss must stay inside the paper's protected envelope.
	if res.clientFail > 0.15 {
		t.Fatalf("client loss across the whole run = %.3f", res.clientFail)
	}
}

// TestElasticDeterministic locks the elastic experiment's byte output to
// the golden file under the parallel runner, paired with another
// experiment so the parallelism is real: balancer decisions ride the sim
// clock only.
func TestElasticDeterministic(t *testing.T) {
	checkGolden(t, []string{"elastic", "fig4"}, 2, nil)
}
