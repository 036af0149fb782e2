package experiments

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// RunResult is the outcome of one experiment executed by the runner.
type RunResult struct {
	ID string
	// Output is the experiment's complete byte output: the banner line
	// followed by its result table. Concatenating the outputs of a RunAll
	// call in order reproduces, byte for byte, what a sequential run of
	// the same ids would print (experiments are deterministic and each one
	// owns a private sim.Engine, so workers never share state).
	Output []byte
	// Wall is the wall-clock time the experiment took on its worker.
	Wall time.Duration
	// Err is the experiment's error, if it failed.
	Err error
	// Probes holds what the experiment's rigs collected under RunAll's
	// arm (nil when unarmed).
	Probes *Probes
	// result is what the experiment's Run returned with its output.
	result any
}

// RunAll executes the experiments with the given ids on a pool of
// parallelism workers and returns their results in the order ids were
// given. parallelism <= 0 means runtime.NumCPU(). Each experiment runs
// under a fresh copy of arm's settings (nil arms nothing), so collected
// instruments never mix across workers; CollectProbes merges them.
//
// Each experiment's output is captured into a per-experiment buffer, so
// parallel execution cannot interleave output. The first experiment error
// cancels the context and stops workers from starting further experiments
// (already-running experiments finish; their results are still reported).
// The returned error is the first error in id order, wrapped with its
// experiment id.
func RunAll(ctx context.Context, ids []string, parallelism int, arm *Probes) ([]RunResult, error) {
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, ok := ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (try 'scotchsim list')", id)
		}
		exps[i] = e
	}
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	parallelism = max(1, min(parallelism, len(exps)))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]RunResult, len(exps))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = runCaptured(exps[i], arm.fresh())
				if results[i].Err != nil {
					cancel()
				}
			}
		}()
	}
	// Feed indexes in registry/argument order so, under any parallelism,
	// early experiments start first and results stay position-stable.
feed:
	for i := range exps {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("%s: %w", results[i].ID, results[i].Err)
		}
	}
	return results, ctx.Err()
}

// runCaptured runs one experiment, capturing banner and table output.
func runCaptured(e Experiment, p *Probes) RunResult {
	var buf bytes.Buffer
	banner(&buf, e)
	start := time.Now()
	res, err := e.Run(&buf, p)
	return RunResult{
		ID:     e.ID,
		Output: buf.Bytes(),
		Wall:   time.Since(start),
		Err:    err,
		Probes: p,
		result: res,
	}
}
