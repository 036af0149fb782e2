package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one (workload, metric) comparison.
const (
	verdictOK         = "ok"
	verdictImproved   = "improved"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// comparison is one row of the -compare table.
type comparison struct {
	Workload, Metric string
	Old, New         float64
	Change           float64 // relative, positive = worse
	Spread           float64 // widest run-to-run spread seen in either file
	Bound            float64
	Verdict          string
}

// timedRuns returns the timed runs of one workload in a report.
func (r *report) timedRuns(workload string) []*outcome {
	var out []*outcome
	for _, o := range r.Runs {
		if o.Workload == workload && !o.Traced && o.EndToEnd != nil {
			out = append(out, o)
		}
	}
	return out
}

func metricValues(runs []*outcome, metric string) []float64 {
	vals := make([]float64, len(runs))
	for i, o := range runs {
		vals[i] = o.EndToEnd[metric]
	}
	return vals
}

// runSpread is (max-min)/median over a file's runs of one metric; zero
// with a single run, where there is no spread to see.
func runSpread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	med := median(vals)
	if med == 0 {
		return 0
	}
	return math.Abs((hi - lo) / med)
}

// worsening is the relative change of a metric in the direction that is
// worse for it: positive when new is worse than old.
func worsening(d *e2eDef, old, new float64) float64 {
	if old == 0 {
		return 0
	}
	change := (new - old) / math.Abs(old)
	if d.Better == "higher" {
		change = -change
	}
	return change
}

// compareReports holds every end-to-end metric of every workload in the
// old report against the new one. A workload missing from the new report
// is an error. A metric is a regression when its median worsens past its
// bound, or when operations fail that did not before; it is unresolved,
// not unchanged, when it stays within the bound but the run-to-run spread
// inside either file is wider than the bound.
func compareReports(old, new *report) ([]comparison, error) {
	var rows []comparison
	for _, w := range workloads {
		o, n := old.timedRuns(w.Name), new.timedRuns(w.Name)
		if len(o) == 0 {
			continue
		}
		if len(n) == 0 {
			return nil, fmt.Errorf("workload %s is in the old report but missing from the new one", w.Name)
		}
		for i := range endToEnd {
			d := &endToEnd[i]
			ov, nv := metricValues(o, d.Name), metricValues(n, d.Name)
			row := comparison{Workload: w.Name, Metric: d.Name, Old: median(ov), New: median(nv), Bound: d.Bound,
				Spread: math.Max(runSpread(ov), runSpread(nv))}
			row.Change = worsening(d, row.Old, row.New)
			switch {
			case row.Change > d.Bound:
				row.Verdict = verdictRegression
			case row.Spread > d.Bound:
				row.Verdict = verdictUnresolved
			case row.Change < -d.Bound:
				row.Verdict = verdictImproved
			default:
				row.Verdict = verdictOK
			}
			rows = append(rows, row)
		}
		if of, nf := failedFrac(o), failedFrac(n); nf > of {
			rows = append(rows, comparison{Workload: w.Name, Metric: "ops_failed/ops_attempted",
				Old: of, New: nf, Change: nf - of, Verdict: verdictRegression})
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("the old report holds no timed run")
	}
	return rows, nil
}

// failedFrac is the median share of operations that failed.
func failedFrac(runs []*outcome) float64 {
	vals := make([]float64, len(runs))
	for i, o := range runs {
		vals[i] = float64(o.Failed) / float64(max(o.Attempted, 1))
	}
	return median(vals)
}

func printComparison(w io.Writer, rows []comparison) (regressions int) {
	wl := ""
	for _, r := range rows {
		if r.Workload != wl {
			wl = r.Workload
			fmt.Fprintf(w, "\n%s\n  %-26s %14s %14s %9s %8s %7s  %s\n", wl, "metric", "old", "new", "worse by", "spread", "bound", "verdict")
		}
		fmt.Fprintf(w, "  %-26s %14.6g %14.6g %8.2f%% %7.2f%% %6.0f%%  %s\n",
			r.Metric, r.Old, r.New, 100*r.Change, 100*r.Spread, 100*r.Bound, r.Verdict)
		if r.Verdict == verdictRegression {
			regressions++
		}
	}
	return regressions
}

// compareFiles is `-compare old.json new.json`; the exit code is non-zero
// when any metric regressed.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	old, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	new, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	if old.Stamp.SingleCore || new.Stamp.SingleCore {
		fmt.Fprintln(w, "WARNING: a report was recorded with GOMAXPROCS 1; no performance claim counts from it")
	}
	if old.Scale != new.Scale {
		fmt.Fprintln(w, "compare: the reports were recorded at different scales; their numbers do not compare")
		return 2
	}
	rows, err := compareReports(old, new)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	if n := printComparison(w, rows); n > 0 {
		fmt.Fprintf(w, "\n%d metric(s) regressed past their bound\n", n)
		return 1
	}
	fmt.Fprintln(w, "\nno metric regressed past its bound")
	return 0
}
