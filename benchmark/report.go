package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// stamp records where and from what a result file was produced.
type stamp struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
	// SingleCore marks a result no performance claim may rest on.
	SingleCore bool `json:"single_core"`
}

func newStamp() stamp {
	s := stamp{
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GitSHA: "unknown",
	}
	s.SingleCore = s.GOMAXPROCS == 1
	// The toolchain stamps VCS data into binaries made by `go build` in a
	// git checkout; `go run` and the driver's plain-directory checkout
	// leave it out.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.GitSHA = kv.Value
			case "vcs.modified":
				s.GitDirty = kv.Value == "true"
			}
		}
	}
	return s
}

// report is a result file: what -out writes and -compare reads. It may
// hold several runs of one workload (selfcheck writes two).
type report struct {
	Stamp stamp      `json:"stamp"`
	Scale scale      `json:"scale"`
	Runs  []*outcome `json:"runs"`
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func printStamp(w io.Writer, s stamp, sc scale, seed int64) {
	fmt.Fprintf(w, "scotch benchmark: %d cores, GOMAXPROCS %d, %s %s/%s, git %s dirty=%v, seed %d, seconds %g smoke=%v\n",
		s.Cores, s.GOMAXPROCS, s.GoVersion, s.GOOS, s.GOARCH, s.GitSHA, s.GitDirty, seed, sc.Seconds, sc.Smoke)
	if s.SingleCore {
		fmt.Fprintln(w, "WARNING: GOMAXPROCS is 1; the result is marked single_core and no performance claim counts from it")
	}
}

// printOutcome prints one run: every metric by name with unit, direction
// and (end to end) bound, then the checks.
func printOutcome(w io.Writer, o *outcome) {
	wl := workloadByName(o.Workload)
	kind := "timed"
	if o.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s run, seed %d) ==\n", o.Workload, kind, o.Seed)
	fmt.Fprintf(w, "   op: %s; %s\n", wl.Op, wl.Loop)
	fmt.Fprintf(w, "   ops %d, ops_attempted %d, ops_failed %d, timed section %.3f s wall / %.3f s cpu\n",
		o.Ops, o.Attempted, o.Failed, o.WallS, o.CPUS)
	if o.SimDigest != "" {
		fmt.Fprintf(w, "   sim_digest %s over %.3f simulated s\n", o.SimDigest, o.SimSeconds)
	}
	if o.EndToEnd != nil {
		fmt.Fprintf(w, "   %-28s %16s %-6s %-7s %s\n", "end-to-end metric", "value", "unit", "better", "bound")
		for _, d := range endToEnd {
			note := ""
			if m := d.Meaning[o.Workload]; m != "" {
				note = "  (" + m + ")"
			}
			if d.Name == mLatP50 {
				note += fmt.Sprintf("  [%d samples]", o.LatencySamples)
			}
			fmt.Fprintf(w, "   %-28s %16.6g %-6s %-7s %.0f%%%s\n", d.Name, o.EndToEnd[d.Name], d.Unit, d.Better, 100*d.Bound, note)
		}
	}
	if o.PerLayer != nil {
		fmt.Fprintf(w, "   %-36s %16s %-6s %s\n", "per-layer metric", "value", "unit", "better")
		for _, d := range perLayer {
			fmt.Fprintf(w, "   %-36s %16.6g %-6s %s\n", d.Name, o.PerLayer[d.Name], d.Unit, d.Better)
		}
		fmt.Fprintf(w, "   estimated share of the run's CPU time by layer:\n")
		rows := append([]string(nil), layers...)
		sort.SliceStable(rows, func(i, j int) bool {
			return o.PerLayer[rows[i]+".est_share"] > o.PerLayer[rows[j]+".est_share"]
		})
		for _, l := range rows {
			fmt.Fprintf(w, "     %-12s %6.1f%%\n", l, 100*o.PerLayer[l+".est_share"])
		}
		fmt.Fprintf(w, "     %-12s %6.1f%%\n", "unattributed", 100*o.PerLayer["unattributed_share"])
		fmt.Fprintf(w, "   spans (%s):\n", o.SpanFile)
		for _, s := range o.SpanStats {
			fmt.Fprintf(w, "     %-26s %-8s n=%-8d total %10.2f ms  self %10.2f ms\n", s.Name, s.Layer, s.Count, s.TotalMs, s.SelfMs)
		}
	}
	for _, c := range o.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "   check %s %-24s %s\n", verdict, c.Name, c.Detail)
	}
}

// driverLine is the last line of standard output: the one JSON object the
// driver reads.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted uint64                  `json:"attempted"`
	Failed    uint64                  `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printDriverLine(w io.Writer, o *outcome) error {
	line := driverLine{Correct: o.correct(), Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]driverMetric{}}
	if o.Traced {
		for _, d := range perLayer {
			line.Metrics[d.Name] = driverMetric{o.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			line.Metrics[d.Name] = driverMetric{o.EndToEnd[d.Name], d.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// manifest is BENCHMARK.json, generated from the registry.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWL     `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is the run length the driver passes as --seconds.
const runSeconds = 15

func newManifest() manifest {
	m := manifest{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}
