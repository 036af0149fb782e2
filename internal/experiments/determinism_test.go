package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// fastIDs are the experiments cheap enough to run in the normal test cycle
// (each well under ~5s). Set SCOTCH_DETERMINISM_ALL=1 to check every
// registered experiment against the golden file (a few minutes).
var fastIDs = []string{"table1", "fig4", "fig8", "fig9", "fig14", "elastic",
	"scenario-multitenant", "scenario-fattree", "scenario-replay",
	"devolve-ablation", "devolve-invalidate", "obs-slo",
	"elastic-under-migration", "replica-scale-out"}

func determinismIDs(t *testing.T) []string {
	t.Helper()
	if os.Getenv("SCOTCH_DETERMINISM_ALL") != "" {
		var ids []string
		for _, e := range All() {
			ids = append(ids, e.ID)
		}
		return ids
	}
	if testing.Short() || raceEnabled {
		// The race detector slows these sim-heavy runs 10-20x; two
		// experiments still exercise the parallel runner.
		return fastIDs[:2]
	}
	return fastIDs
}

// rerunIDs are the fastIDs members that finish in well under 200ms, so
// the two tests below can repeat them for about a second in total;
// TestGolden checks every fastIDs member against the golden file. Under
// -short, the race detector or SCOTCH_DETERMINISM_ALL=1 they cover
// determinismIDs instead.
var rerunIDs = []string{"table1", "fig4", "fig14", "scenario-replay",
	"devolve-invalidate", "replica-scale-out"}

func repeatIDs(t *testing.T) []string {
	t.Helper()
	if os.Getenv("SCOTCH_DETERMINISM_ALL") != "" || testing.Short() || raceEnabled {
		return determinismIDs(t)
	}
	return rerunIDs
}

// TestSameSeedByteIdentical runs each experiment twice in one process and
// requires byte-identical output: every experiment builds its world on a
// freshly seeded sim.Engine, so a repeat run must reproduce the exact same
// bytes. Any divergence means nondeterminism leaked into a model (map
// iteration, wall-clock reads, shared state across runs).
func TestSameSeedByteIdentical(t *testing.T) {
	for _, id := range repeatIDs(t) {
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			var a, b bytes.Buffer
			if err := e.Run(&a); err != nil {
				t.Fatal(err)
			}
			if err := e.Run(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("two runs of %s diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
					id, a.String(), b.String())
			}
		})
	}
}

// TestSerialParallelIdentical requires the parallel runner's concatenated
// output to be byte-identical to a serial run of the same ids, for several
// parallelism degrees. Goroutine interleaving must not be observable.
func TestSerialParallelIdentical(t *testing.T) {
	ids := repeatIDs(t)
	serial, err := RunAll(context.Background(), ids, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteResults(&want, serial); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("serial run produced no output")
	}
	for _, par := range []int{2, 4, len(ids)} {
		results, err := RunAll(context.Background(), ids, par)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WriteResults(&got, results); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("parallelism %d: concatenated output differs from serial run", par)
		}
		for i, r := range results {
			if r.ID != ids[i] {
				t.Errorf("parallelism %d: result %d is %q, want %q", par, i, r.ID, ids[i])
			}
			if r.Wall <= 0 {
				t.Errorf("parallelism %d: %s reported non-positive wall time", par, r.ID)
			}
		}
	}
}

// goldenPath is the file holding every experiment's output as
// `scotchsim all` prints it, minus the wall-time lines; goldenRegen (run
// from the repo root) rewrites it, as the Makefile's golden target
// documents.
const (
	goldenPath  = "testdata/all.golden"
	goldenRegen = `go run ./cmd/scotchsim -parallel 2 all | grep -v ' wall time)$' > internal/experiments/testdata/all.golden`
)

// goldenBanner matches the "== id: title ==" line that opens each section.
var goldenBanner = regexp.MustCompile(`(?m)^== ([^:]+): .* ==$`)

// goldenSections splits the golden file into each experiment's section:
// its Output followed by the one blank line that ended its wall-time line.
func goldenSections(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	banners := goldenBanner.FindAllStringSubmatchIndex(text, -1)
	sections := make(map[string]string, len(banners))
	for i, m := range banners {
		end := len(text)
		if i+1 < len(banners) {
			end = banners[i+1][0]
		}
		sections[text[m[2]:m[3]]] = text[m[0]:end]
	}
	return sections
}

// lineDiff renders a unified-style diff of want against got: lines kept
// by a longest common subsequence are prefixed ' ', lines only in want
// '-' and lines only in got '+'.
func lineDiff(want, got string) string {
	a := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
	b := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	// lcs[i][j] is the common-subsequence length of a[i:] and b[j:].
	lcs := make([][]int, len(a)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var sb strings.Builder
	sb.WriteString("--- " + goldenPath + "\n+++ this run\n")
	for i, j := 0, 0; i < len(a) || j < len(b); {
		switch {
		case i < len(a) && j < len(b) && a[i] == b[j]:
			sb.WriteString(" " + a[i] + "\n")
			i, j = i+1, j+1
		case i < len(a) && (j == len(b) || lcs[i+1][j] >= lcs[i][j+1]):
			sb.WriteString("-" + a[i] + "\n")
			i++
		default:
			sb.WriteString("+" + b[j] + "\n")
			j++
		}
	}
	return sb.String()
}

// TestGolden runs the determinism set once through the parallel runner
// and compares each experiment's output with its section of the golden
// file. Every experiment builds its world on a freshly seeded sim.Engine
// and the file was recorded by an earlier process, so a match pins both
// that a seed reproduces its bytes and that worker interleaving is not
// observable. A mismatch means a model changed behaviour or
// nondeterminism leaked in (map iteration, wall-clock reads, state shared
// across runs).
func TestGolden(t *testing.T) {
	checkGolden(t, determinismIDs(t), 4)
}

// checkGolden runs ids once through RunAll at the given parallelism and
// compares each experiment's output with its section of the golden file,
// in one subtest per id.
func checkGolden(t *testing.T, ids []string, parallelism int) {
	t.Helper()
	results, err := RunAll(context.Background(), ids, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.ID != ids[i] {
			t.Errorf("result %d is %q, want %q", i, r.ID, ids[i])
		}
		if r.Wall <= 0 {
			t.Errorf("%s reported non-positive wall time", r.ID)
		}
	}
	sections := goldenSections(t)
	for i, id := range ids {
		got := string(results[i].Output) + "\n"
		t.Run(id, func(t *testing.T) {
			want, ok := sections[id]
			if !ok {
				t.Fatalf("%s has no section in %s; regenerate it from the repo root with\n  %s",
					id, goldenPath, goldenRegen)
			}
			if got != want {
				t.Errorf("%s differs from %s:\n%s\nIf the shift is intended, document it in EXPERIMENTS.md and regenerate the file from the repo root with\n  %s",
					id, goldenPath, lineDiff(want, got), goldenRegen)
			}
		})
	}
}

// TestRunAllUnknownID verifies the runner rejects unknown experiments
// before starting any work.
func TestRunAllUnknownID(t *testing.T) {
	if _, err := RunAll(context.Background(), []string{"table1", "nope"}, 2); err == nil {
		t.Fatal("expected error for unknown experiment id")
	}
}

// TestRunAllCancellation verifies a canceled context stops the feed: with
// parallelism 1 and a pre-canceled context, no experiment should start.
func TestRunAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunAll(ctx, []string{"table1", "fig14"}, 1)
	if err == nil {
		t.Fatal("expected context error")
	}
	for _, r := range results {
		if r.ID != "" {
			t.Fatalf("experiment %s ran despite canceled context", r.ID)
		}
	}
}

// TestRunAllErrorPropagation temporarily registers a failing experiment and
// checks RunAll reports its error wrapped with the experiment id, while the
// healthy experiments before it in the id list still produce output.
func TestRunAllErrorPropagation(t *testing.T) {
	const id = "test-failing-experiment"
	register(Experiment{
		ID:    id,
		Title: "always fails (test only)",
		Run:   func(io.Writer) error { return errors.New("boom") },
	})
	defer func() {
		delete(registry, id)
		order = order[:len(order)-1]
	}()

	results, err := RunAll(context.Background(), []string{"table1", id}, 1)
	if err == nil || !strings.Contains(err.Error(), id) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want wrapped boom from %s", err, id)
	}
	if len(results) != 2 || len(results[0].Output) == 0 {
		t.Fatalf("healthy experiment before the failure lost its output: %+v", results)
	}
	if results[1].Err == nil {
		t.Fatal("failing experiment's result has nil Err")
	}
}
