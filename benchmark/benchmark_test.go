package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The tests run every workload at the smoke scale (2 simulated s, half a
// second of live traffic), so the whole file rides the tier-1 suite in a
// few seconds. They check the benchmark's own promises: correct outputs,
// determinism, the driver's output format, and that BENCHMARK.json and
// the registry say the same thing.

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func e2eByName(name string) *e2eDef {
	for i := range endToEnd {
		if endToEnd[i].Name == name {
			return &endToEnd[i]
		}
	}
	return nil
}

// TestRegistryLint holds the registry to the limits the benchmark
// contract sets and to its own rule that every per-layer metric says what
// it should move.
func TestRegistryLint(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRe.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRe)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if w.Loop == "" || w.Op == "" {
			t.Errorf("workload %s: missing loop statement or op", w.Name)
		}
	}
	direction := func(n, better string) {
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better is %q", n, better)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		name("end-to-end", d.Name)
		direction(d.Name, d.Better)
		if !unitRe.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Doc == "" {
			t.Errorf("%s: no definition", d.Name)
		}
		if d.Name == mSetup {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
		for w := range d.Meaning {
			if workloadByName(w) == nil {
				t.Errorf("%s: meaning for unknown workload %q", d.Name, w)
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	owners := map[string]bool{}
	for _, l := range layers {
		owners[l] = true
	}
	for _, d := range perLayer {
		name("per-layer", d.Name)
		direction(d.Name, d.Better)
		if !unitRe.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if !owners[d.Layer] && d.Layer != "harness" {
			t.Errorf("%s: unknown layer %q", d.Name, d.Layer)
		}
		if len(d.Moves) == 0 && d.NoMove == "" {
			t.Errorf("%s declares neither what it should move nor why it moves nothing", d.Name)
		}
		for _, m := range d.Moves {
			if e2eByName(m.Metric) == nil || workloadByName(m.Workload) == nil {
				t.Errorf("%s: should-move pair (%s, %s) names an unknown metric or workload", d.Name, m.Metric, m.Workload)
			}
		}
	}
	for _, l := range layers {
		if !seen[l+".est_share"] {
			t.Errorf("layer %s has no est_share metric", l)
		}
	}
}

// TestManifestMatchesRegistry pins BENCHMARK.json to the registry: same
// command, paths, workloads, metrics, units, directions and bounds.
func TestManifestMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, fromRegistry any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(newManifest())
	json.Unmarshal(b, &fromRegistry)
	got, _ := json.MarshalIndent(onDisk, "", " ")
	want, _ := json.MarshalIndent(fromRegistry, "", " ")
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the registry; regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
}

// driverOutput runs the benchmark as the driver does and returns the
// parsed last line of standard output.
func driverOutput(t *testing.T, args ...string) driverLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark %v exited %d\nstderr: %s\nstdout: %s", args, code, &stderr, &stdout)
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	var keys map[string]json.RawMessage
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, last)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Fatalf("last line must have exactly correct, attempted, failed and metrics: %s", last)
	}
	var line driverLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		t.Fatal(err)
	}
	return line
}

// TestTimedRunDriverOutput runs every workload's timed run at the smoke
// scale through the driver's command line: the checks pass, nothing
// fails, and the metrics are exactly the end-to-end set, all finite and
// none zero.
func TestTimedRunDriverOutput(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			line := driverOutput(t, "--workload", w.Name, "--seed", "5", "--seconds", "15", "--trace", "0", "-smoke")
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want the %d end-to-end ones", len(line.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				m, ok := line.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s missing", d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s unit %q, want %q", d.Name, m.Unit, d.Unit)
				case m.Value == 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s = %v", d.Name, m.Value)
				}
			}
		})
	}
}

// TestTracedRunDriverOutput does the same for the traced run: every
// per-layer metric is reported, the span file is written and parses, and
// the shares are finite.
func TestTracedRunDriverOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced runs fill a 4k-rule table per workload; slow under -race")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			line := driverOutput(t, "--workload", w.Name, "--seed", "5", "--trace", "1", "-smoke", "-spans", dir)
			if !line.Correct {
				t.Error("a check failed")
			}
			if len(line.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want the %d per-layer ones", len(line.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if m, ok := line.Metrics[d.Name]; !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s missing or not finite: %+v", d.Name, m)
				}
			}
			if line.Metrics["trace.spans"].Value == 0 {
				t.Error("no span recorded")
			}
			raw, err := os.ReadFile(filepath.Join(dir, w.Name+".spans.json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(raw, &spans); err != nil {
				t.Fatalf("span file: %v", err)
			}
			if float64(len(spans)) != line.Metrics["trace.spans"].Value {
				t.Errorf("span file holds %d spans, trace.spans says %v", len(spans), line.Metrics["trace.spans"].Value)
			}
			for _, s := range spans[:min(len(spans), 100)] {
				if s.ID == 0 || s.Name == "" || s.Layer == "" || s.Workload != w.Name || s.End < s.Start {
					t.Fatalf("malformed span %+v", s)
				}
			}
		})
	}
}

// TestSimDeterminism: the same seed gives the same digest, counts and
// simulated statistics; another seed gives another digest.
func TestSimDeterminism(t *testing.T) {
	for _, name := range []string{wlDDoS, wlFatTree} {
		t.Run(name, func(t *testing.T) {
			sc := smokeScale()
			a, b, c := runSimTimed(name, 7, sc), runSimTimed(name, 7, sc), runSimTimed(name, 8, sc)
			if a.SimDigest != b.SimDigest || a.Ops != b.Ops || a.Attempted != b.Attempted || a.Failed != b.Failed {
				t.Errorf("same seed, different run: %s/%d vs %s/%d", a.SimDigest, a.Ops, b.SimDigest, b.Ops)
			}
			for _, m := range []string{mLatP50, mLatP99, mDelivered} {
				if a.EndToEnd[m] != b.EndToEnd[m] {
					t.Errorf("same seed, %s differs: %v vs %v", m, a.EndToEnd[m], b.EndToEnd[m])
				}
			}
			if a.SimDigest == c.SimDigest {
				t.Errorf("seeds 7 and 8 give the same digest %s", a.SimDigest)
			}
		})
	}
}

// TestShardedDigestEqualsSerial pins the sharded-speedup probe's
// precondition: the partitioned engine simulates exactly what the serial
// one does.
func TestShardedDigestEqualsSerial(t *testing.T) {
	speedup, same := shardedSpeedup(3, smokeScale())
	if !same {
		t.Error("serial and sharded digests differ")
	}
	if speedup <= 0 || math.IsInf(speedup, 0) {
		t.Errorf("speedup %v", speedup)
	}
}

// synthetic builds a report with one timed run per value of ops_per_s for
// each named workload; every other metric is 1.
func synthetic(opsPerS map[string][]float64) *report {
	r := &report{}
	for name, vals := range opsPerS {
		for _, v := range vals {
			o := &outcome{Workload: name, Attempted: 100, EndToEnd: map[string]float64{}}
			for _, d := range endToEnd {
				o.EndToEnd[d.Name] = 1
			}
			o.EndToEnd[mOps] = v
			r.Runs = append(r.Runs, o)
		}
	}
	return r
}

func verdictOf(t *testing.T, rows []comparison, workload, metric string) string {
	t.Helper()
	for _, r := range rows {
		if r.Workload == workload && r.Metric == metric {
			return r.Verdict
		}
	}
	t.Fatalf("no row for %s %s", workload, metric)
	return ""
}

func TestCompare(t *testing.T) {
	bound := e2eByName(mOps).Bound
	old := synthetic(map[string][]float64{wlDDoS: {1000, 1000}, wlPktIn: {500, 500}})

	t.Run("regression caught", func(t *testing.T) {
		slower := 1000 * (1 - 2*bound)
		rows, err := compareReports(old, synthetic(map[string][]float64{wlDDoS: {slower, slower}, wlPktIn: {500, 500}}))
		if err != nil {
			t.Fatal(err)
		}
		if v := verdictOf(t, rows, wlDDoS, mOps); v != verdictRegression {
			t.Errorf("ddos ops_per_s verdict %q, want regression", v)
		}
		if v := verdictOf(t, rows, wlPktIn, mOps); v != verdictOK {
			t.Errorf("untouched workload verdict %q, want ok", v)
		}
		var out bytes.Buffer
		if n := printComparison(&out, rows); n != 1 {
			t.Errorf("%d regressions printed, want 1\n%s", n, &out)
		}
	})
	t.Run("within noise passes", func(t *testing.T) {
		near := 1000 * (1 - bound/3)
		rows, err := compareReports(old, synthetic(map[string][]float64{wlDDoS: {near, near}, wlPktIn: {500, 500}}))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Verdict != verdictOK {
				t.Errorf("%s %s verdict %q, want ok", r.Workload, r.Metric, r.Verdict)
			}
		}
	})
	t.Run("wide spread is unresolved, not unchanged", func(t *testing.T) {
		lo, hi := 1000*(1-bound), 1000*(1+bound)
		rows, err := compareReports(old, synthetic(map[string][]float64{wlDDoS: {lo, hi}, wlPktIn: {500, 500}}))
		if err != nil {
			t.Fatal(err)
		}
		if v := verdictOf(t, rows, wlDDoS, mOps); v != verdictUnresolved {
			t.Errorf("verdict %q, want unresolved", v)
		}
	})
	t.Run("improvement is reported", func(t *testing.T) {
		rows, err := compareReports(old, synthetic(map[string][]float64{wlDDoS: {2000, 2000}, wlPktIn: {500, 500}}))
		if err != nil {
			t.Fatal(err)
		}
		if v := verdictOf(t, rows, wlDDoS, mOps); v != verdictImproved {
			t.Errorf("verdict %q, want improved", v)
		}
	})
	t.Run("missing workload is an error", func(t *testing.T) {
		if _, err := compareReports(old, synthetic(map[string][]float64{wlDDoS: {1000}})); err == nil {
			t.Error("no error for a workload missing from the new report")
		}
	})
	t.Run("more failed operations is a regression", func(t *testing.T) {
		worse := synthetic(map[string][]float64{wlDDoS: {1000, 1000}, wlPktIn: {500, 500}})
		for _, o := range worse.timedRuns(wlPktIn) {
			o.Failed = 1
		}
		rows, err := compareReports(old, worse)
		if err != nil {
			t.Fatal(err)
		}
		if v := verdictOf(t, rows, wlPktIn, "ops_failed/ops_attempted"); v != verdictRegression {
			t.Errorf("verdict %q, want regression", v)
		}
	})
}

// TestResultFileRoundTrip: -out writes a stamped file that -compare reads
// back and finds unchanged against itself.
func TestResultFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", wlBurst, "-smoke", "-out", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, &stderr)
	}
	rep, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stamp.Cores < 1 || rep.Stamp.GOMAXPROCS < 1 || rep.Stamp.GoVersion == "" || rep.Stamp.GitSHA == "" {
		t.Errorf("incomplete stamp %+v", rep.Stamp)
	}
	if rep.Stamp.SingleCore != (rep.Stamp.GOMAXPROCS == 1) {
		t.Errorf("single_core=%v with GOMAXPROCS %d", rep.Stamp.SingleCore, rep.Stamp.GOMAXPROCS)
	}
	if !rep.Scale.Smoke || len(rep.Runs) != 1 || rep.Runs[0].Seed != 1 {
		t.Errorf("scale or runs not recorded: %+v", rep.Scale)
	}
	stdout.Reset()
	if code := run([]string{"-compare", path, path}, &stdout, &stderr); code != 0 {
		t.Errorf("a report compared with itself exits %d\n%s", code, &stdout)
	}
}
