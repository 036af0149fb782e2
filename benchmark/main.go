// Command benchmark is the Scotch reproduction's benchmark: four
// workloads, eight end-to-end metrics with regression bounds, per-layer
// probes and a traced run, all measured from outside the packages through
// their exported functions. BENCHMARK.json at the repo root is its
// contract; README.md in this directory explains every metric.
//
//	go run ./benchmark                                    # every workload, timed run
//	go run ./benchmark -trace 1                           # every workload, traced run + probes
//	go run ./benchmark -workload ddos-overlay -seed 7     # one workload
//	go run ./benchmark -out new.json                      # also write a result file
//	go run ./benchmark -compare old.json new.json         # regression gate
//	go run ./benchmark -selfcheck                         # two sets, spreads against the bounds
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so the tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Int64("seed", 1, "seed for sim.New, the generators and the live flow-key sequence")
	seconds := fs.Float64("seconds", runSeconds, "target host seconds of the timed section")
	trace := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	smoke := fs.Bool("smoke", false, "test-sized run: 2 simulated s, 0.5 s live, one build")
	out := fs.String("out", "", "also write the result file here (what -compare reads)")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's span files")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	selfcheck := fs.Bool("selfcheck", false, "run every workload twice and hold the spreads against the bounds")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as the registry defines it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}

	switch {
	case *printManifest:
		b, _ := json.MarshalIndent(newManifest(), "", "  ")
		fmt.Fprintf(stdout, "%s\n", b)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}

	sc := fullScale(*seconds)
	if *smoke {
		sc = smokeScale()
	}
	names := []string{*workload}
	if *workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if workloadByName(*workload) == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	rep := &report{Stamp: newStamp(), Scale: sc}
	printStamp(stdout, rep.Stamp, sc, *seed)

	if *selfcheck {
		return selfCheck(stdout, rep, names, *seed, sc, *out)
	}
	ok := true
	var last *outcome
	for _, name := range names {
		o, err := runWorkload(name, *seed, sc, *trace != 0, *spans)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		printOutcome(stdout, o)
		rep.Runs = append(rep.Runs, o)
		ok = ok && o.correct()
		last = o
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *workload != "" {
		if err := printDriverLine(stdout, last); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: a correctness check failed")
		return 1
	}
	return 0
}

// runWorkload runs one workload once, timed or traced.
func runWorkload(name string, seed int64, sc scale, traced bool, spanDir string) (*outcome, error) {
	switch {
	case name == wlPktIn && traced:
		return runPktInTraced(seed, sc, spanDir)
	case name == wlPktIn:
		return runPktInTimed(seed, sc)
	case name == wlBurst && traced:
		return runBurstTraced(seed, sc, spanDir)
	case name == wlBurst:
		return runBurstTimed(seed, sc)
	case traced:
		return runSimTraced(name, seed, sc, spanDir)
	}
	return runSimTimed(name, seed, sc), nil
}
