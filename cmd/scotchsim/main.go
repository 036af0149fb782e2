// Command scotchsim runs the paper-reproduction experiments.
//
// Usage:
//
//	scotchsim [-parallel N] list             list experiment ids
//	scotchsim [-parallel N] run <id>...      run specific experiments (e.g. fig3 fig11)
//	  run flags: -trace out.json             export control-path Chrome trace JSON
//	             -stages                     print per-stage latency breakdown
//	             -health                     print per-rig end-of-run health digests
//	             -health-json out.json       write the digests as JSON
//	             -profile-dir DIR            pprof capture on SLO-breach transitions
//	             -statusz-addr :9090         live /statusz + /metrics while running
//	             -balance                    advisory joint balancer per rig (decision log)
//	scotchsim [-parallel N] all              run every experiment
//
// Experiments execute on a worker pool of -parallel workers (default:
// runtime.NumCPU()). Each experiment owns a private deterministic engine,
// so the concatenated output is byte-identical to a serial run regardless
// of parallelism; only the per-experiment wall-time lines vary. Tracing
// (-trace / -stages) and health observation (-health and friends) force
// serial execution so collected traces and digests line up with output
// order; the experiments' own tables are byte-unchanged either way.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"scotch/internal/experiments"
	"scotch/internal/obs"
	"scotch/internal/telemetry"
)

func main() {
	parallel := flag.Int("parallel", runtime.NumCPU(), "number of experiments to run concurrently")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	switch flag.Arg(0) {
	case "list":
		for _, e := range experiments.All() {
			fmt.Printf("%-28s %s\n", e.ID, e.Title)
		}
	case "all":
		var ids []string
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
		runIDs(ids, *parallel)
	case "run":
		runCmd(flag.Args()[1:], *parallel)
	default:
		usage()
		os.Exit(2)
	}
}

// runCmd handles `scotchsim run [flags] <id>...`; flags and ids may be
// interleaved in any order.
func runCmd(args []string, parallel int) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	tracePath := fs.String("trace", "", "write control-path Chrome trace-event JSON to this file")
	stages := fs.Bool("stages", false, "print the per-stage control-path latency breakdown after the normal output")
	health := fs.Bool("health", false, "print an end-of-run health digest (load timelines, SLO verdicts, burn peaks) per rig")
	healthJSON := fs.String("health-json", "", "write the collected health digests as JSON to this file (implies observation)")
	profileDir := fs.String("profile-dir", "", "capture heap+CPU pprof profiles into this directory on SLO-breach transitions")
	statuszAddr := fs.String("statusz-addr", "", "serve a live /statusz (plus /metrics and /debug/pprof) on this address while experiments run")
	advise := fs.Bool("balance", false, "run an advisory joint balancer per rig and print its decision log (implies observation, never actuates)")
	// The flag package stops at the first non-flag argument; re-parse so
	// `scotchsim run fig14 -stages` works as naturally as the reverse order.
	var ids []string
	for {
		fs.Parse(args)
		args = fs.Args()
		if len(args) == 0 {
			break
		}
		ids = append(ids, args[0])
		args = args[1:]
	}
	if len(ids) == 0 {
		usage()
		os.Exit(2)
	}
	tracing := *tracePath != "" || *stages
	if tracing {
		// One private tracer per rig, collected in build order; serial
		// execution keeps that order aligned with the output order.
		experiments.EnableTracing()
		defer experiments.DisableTracing()
		parallel = 1
	}
	observing := *health || *healthJSON != "" || *profileDir != "" || *statuszAddr != "" || *advise
	if observing {
		// Like tracing: one observatory per rig in build order, so serial
		// execution keeps digests aligned with the output order (and the
		// /statusz "current rig" pointer meaningful).
		experiments.EnableObservatoryWith(obs.Config{ProfileDir: *profileDir})
		defer experiments.DisableObservatory()
		parallel = 1
	}
	if *advise {
		// Advise mode reads each rig's observatory but never actuates, so
		// the experiments' own output is byte-unchanged.
		experiments.EnableBalanceAdvisor()
		defer experiments.DisableBalanceAdvisor()
	}
	if *statuszAddr != "" {
		srv, err := telemetry.StartServer(*statuszAddr, telemetry.NewRegistry(),
			telemetry.WithHandler("/statusz", obs.Handler(experiments.CurrentClusterView)))
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "statusz on http://%s/statusz\n", srv.Addr())
	}
	runIDs(ids, parallel)
	if *advise {
		writeAdvice()
	}
	if observing {
		writeHealth(*health, *healthJSON)
	}
	if !tracing {
		return
	}
	traces := experiments.CollectedTraces()
	if len(traces) == 0 {
		fmt.Fprintln(os.Stderr, "note: the selected experiments built no traced rigs; nothing was recorded")
		return
	}
	if *stages {
		for _, nt := range traces {
			fmt.Printf("control-path stages (%s):\n", nt.Name)
			nt.Tracer.WriteStageSummary(os.Stdout)
			fmt.Println()
		}
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		werr := telemetry.WriteChromeTrace(f, traces...)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "error:", werr)
			os.Exit(1)
		}
		spans := 0
		for _, nt := range traces {
			spans += len(nt.Tracer.Spans())
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d traced runs, %d spans)\n", *tracePath, len(traces), spans)
	}
}

// writeAdvice prints each rig's advisory balancer decision log after the
// experiments' own output, in build order.
func writeAdvice() {
	runs := experiments.CollectedBalance()
	if len(runs) == 0 {
		fmt.Fprintln(os.Stderr, "note: the selected experiments built no advised rigs; no balance advice to report")
		return
	}
	for _, nb := range runs {
		log := nb.B.Log()
		fmt.Printf("balance advice (%s): %d decisions\n", nb.Name, len(log))
		experiments.WriteDecisions(os.Stdout, log)
		fmt.Println()
	}
}

// writeHealth renders the collected per-rig health digests: as text to
// stdout when -health is set, and as a JSON array to jsonPath when
// -health-json names a file.
func writeHealth(text bool, jsonPath string) {
	runs := experiments.CollectedHealth()
	if len(runs) == 0 {
		fmt.Fprintln(os.Stderr, "note: the selected experiments built no observed rigs; no health to report")
		return
	}
	digests := make([]*obs.Digest, 0, len(runs))
	for _, nh := range runs {
		digests = append(digests, nh.Obs.Digest(nh.Name))
	}
	if text {
		for _, d := range digests {
			if err := d.WriteText(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			fmt.Println()
		}
	}
	if jsonPath == "" {
		return
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(digests)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintln(os.Stderr, "error:", werr)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d health digests)\n", jsonPath, len(digests))
}

// runIDs executes experiments on the worker pool and streams each result in
// submission order: the experiment's captured output (banner + table),
// followed by a wall-time line. Output bytes are identical at any
// parallelism; timings naturally vary.
func runIDs(ids []string, parallel int) {
	results, err := experiments.RunAll(context.Background(), ids, parallel)
	for _, r := range results {
		if r.ID == "" {
			continue // never started: an earlier experiment failed
		}
		os.Stdout.Write(r.Output)
		if r.Err == nil {
			fmt.Printf("(%s completed in %v wall time)\n\n", r.ID, r.Wall.Round(time.Millisecond))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, strings.TrimSpace(`
usage: scotchsim [-parallel N] list | all
       scotchsim run [-trace file] [-stages] [-health] [-health-json file] [-profile-dir dir] [-statusz-addr addr] [-balance] <id>...
`))
}
