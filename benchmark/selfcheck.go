package main

import (
	"fmt"
	"io"
)

// selfCheck runs the chosen workloads twice, back to back with the same
// seed, prints every end-to-end metric's two-run spread beside its bound,
// and fails when a spread exceeds the bound or when a simulator workload's
// digest, counts or simulated statistics differ between the two sets.
func selfCheck(w io.Writer, rep *report, names []string, seed int64, sc scale, out string) int {
	for set := 1; set <= 2; set++ {
		for _, name := range names {
			o, err := runWorkload(name, seed, sc, false, "")
			if err != nil {
				fmt.Fprintf(w, "selfcheck: %s: %v\n", name, err)
				return 1
			}
			fmt.Fprintf(w, "set %d: %s done in %.1f s, correct=%v\n", set, name, o.WallS, o.correct())
			rep.Runs = append(rep.Runs, o)
		}
	}
	if out != "" {
		if err := rep.write(out); err != nil {
			fmt.Fprintln(w, "selfcheck:", err)
			return 1
		}
	}
	failures := 0
	for _, name := range names {
		runs := rep.timedRuns(name)
		a, b := runs[0], runs[1]
		fmt.Fprintf(w, "\n%s\n  %-20s %14s %14s %8s %7s\n", name, "metric", "set 1", "set 2", "spread", "bound")
		for _, d := range endToEnd {
			spread := runSpread([]float64{a.EndToEnd[d.Name], b.EndToEnd[d.Name]})
			verdict := ""
			if spread > d.Bound {
				verdict = "  EXCEEDS BOUND"
				failures++
			}
			fmt.Fprintf(w, "  %-20s %14.6g %14.6g %7.2f%% %6.0f%%%s\n",
				d.Name, a.EndToEnd[d.Name], b.EndToEnd[d.Name], 100*spread, 100*d.Bound, verdict)
		}
		if !a.correct() || !b.correct() {
			fmt.Fprintln(w, "  a correctness check FAILED")
			failures++
		}
		if workloadByName(name).Sim {
			same := a.SimDigest == b.SimDigest && a.Ops == b.Ops && a.Attempted == b.Attempted && a.Failed == b.Failed &&
				a.EndToEnd[mLatP50] == b.EndToEnd[mLatP50] && a.EndToEnd[mLatP99] == b.EndToEnd[mLatP99] &&
				a.EndToEnd[mDelivered] == b.EndToEnd[mDelivered]
			fmt.Fprintf(w, "  sim_digest %s / %s, counts and simulated statistics identical: %v\n", a.SimDigest, b.SimDigest, same)
			if !same {
				failures++
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(w, "\nselfcheck FAILED: %d finding(s)\n", failures)
		return 1
	}
	fmt.Fprintln(w, "\nselfcheck passed: every spread is within its bound")
	return 0
}
