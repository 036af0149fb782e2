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
//	             -statusz-addr :9090         live /statusz + /debug/pprof while running
//	             -balance                    advisory joint balancer per rig (decision log)
//	scotchsim [-parallel N] all              run every experiment
//
// Experiments execute on a worker pool of -parallel workers (default:
// runtime.NumCPU()). Each experiment owns a private deterministic engine,
// so the concatenated output is byte-identical to a serial run regardless
// of parallelism; only the per-experiment wall-time lines vary. The run
// flags arm per-experiment probes whose traces, digests and advice are
// numbered run1, run2, ... in output order, so they too are identical at
// any parallelism. Only -profile-dir forces serial execution: Go's CPU
// profiler is process-wide.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
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
		runIDs(ids, *parallel, nil)
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
	statuszAddr := fs.String("statusz-addr", "", "serve a live /statusz (plus /debug/pprof) on this address while experiments run")
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
	arm := &experiments.Probes{Trace: *tracePath != "" || *stages, Advise: *advise}
	if *health || *healthJSON != "" || *profileDir != "" || *statuszAddr != "" || *advise {
		arm.Obs = &obs.Config{ProfileDir: *profileDir}
	}
	if *profileDir != "" {
		// Go's CPU profiler is process-wide: only one breach capture can
		// profile at a time, so experiments run one after another.
		parallel = 1
	}
	if *statuszAddr != "" {
		// Workers publish each observatory as its rig is built; /statusz
		// serves the newest one's view.
		var newest atomic.Pointer[obs.Observatory]
		arm.Observed = newest.Store
		srv, err := telemetry.StartServer(*statuszAddr, nil,
			telemetry.WithHandler("/statusz", obs.Handler(func() *obs.ClusterView {
				return newest.Load().Snapshot()
			})))
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "statusz on http://%s/statusz\n", srv.Addr())
	}
	p := experiments.CollectProbes(runIDs(ids, parallel, arm))
	if arm.Advise && len(p.Advice) == 0 {
		fmt.Fprintln(os.Stderr, "note: the selected experiments built no advised rigs; no balance advice to report")
	}
	if arm.Obs != nil && len(p.Health) == 0 {
		fmt.Fprintln(os.Stderr, "note: the selected experiments built no observed rigs; no health to report")
	}
	if arm.Trace && len(p.Traces) == 0 {
		fmt.Fprintln(os.Stderr, "note: the selected experiments built no traced rigs; nothing was recorded")
	}
	text := *p
	if !*health {
		text.Health = nil
	}
	if !*stages {
		text.Traces = nil
	}
	if err := experiments.WriteProbes(os.Stdout, &text); err != nil {
		fail(err)
	}
	if *healthJSON != "" && len(p.Health) > 0 {
		digests := make([]*obs.Digest, 0, len(p.Health))
		for _, nh := range p.Health {
			digests = append(digests, nh.Obs.Digest(nh.Name))
		}
		writeFile(*healthJSON, func(f *os.File) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(digests)
		})
		fmt.Fprintf(os.Stderr, "wrote %s (%d health digests)\n", *healthJSON, len(digests))
	}
	if *tracePath != "" && len(p.Traces) > 0 {
		writeFile(*tracePath, func(f *os.File) error {
			return telemetry.WriteChromeTrace(f, p.Traces...)
		})
		spans := 0
		for _, nt := range p.Traces {
			spans += len(nt.Tracer.Spans())
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d traced runs, %d spans)\n", *tracePath, len(p.Traces), spans)
	}
}

// writeFile creates path and fills it with write, exiting on any error.
func writeFile(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fail(werr)
	}
}

// runIDs executes experiments on the worker pool under arm and streams
// each result in submission order: the experiment's captured output
// (banner + table), followed by a wall-time line. Output bytes are
// identical at any parallelism; timings naturally vary.
func runIDs(ids []string, parallel int, arm *experiments.Probes) []experiments.RunResult {
	results, err := experiments.RunAll(context.Background(), ids, parallel, arm)
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
		fail(err)
	}
	return results
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, strings.TrimSpace(`
usage: scotchsim [-parallel N] list | all
       scotchsim run [-trace file] [-stages] [-health] [-health-json file] [-profile-dir dir] [-statusz-addr addr] [-balance] <id>...
`))
}
