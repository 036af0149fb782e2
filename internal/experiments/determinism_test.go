package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"scotch/internal/obs"
)

// shortIDs are what TestGolden and TestClaims cover under -short and the
// race detector, which slows these sim-heavy runs 10-20x: two fast
// experiments, which still exercise the parallel runner, and the four
// whose claims CI's race step checks.
var shortIDs = []string{"table1", "fig4", "chaos-partition", "chaos-churn", "elastic", "scenario-replay"}

// goldenIDs are the experiments TestGolden checks: every registered one,
// or shortIDs under -short or the race detector.
func goldenIDs() []string {
	if testing.Short() || raceEnabled {
		return shortIDs
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// memo holds each experiment's unarmed run, made at most once per test
// binary: every test that reads an experiment's output or typed result
// reads it here.
var memo = struct {
	sync.Mutex
	runs map[string]RunResult
}{runs: make(map[string]RunResult)}

// longestIDs are the experiments that take longest, longest first: 9.9,
// 9.3, 5.8, 4.2, 4.2, 3.0 and 2.8 s wall at `scotchsim -parallel 2 all` on
// a 2-core box. The rest take 2.4 s or less.
var longestIDs = []string{"fig10", "fig12", "fig9", "fig8", "ablation-fanout", "chaos-vswitch", "fig11"}

// memoRuns returns the memoized run of each id, first running the ids not
// yet memoized in one unarmed RunAll at parallelism 4. The longest of
// them start first, so that the pool's tail is short runs.
func memoRuns(t *testing.T, ids ...string) []RunResult {
	t.Helper()
	memo.Lock()
	defer memo.Unlock()
	var missing []string
	for _, id := range ids {
		if _, ok := memo.runs[id]; !ok && !slices.Contains(missing, id) {
			missing = append(missing, id)
		}
	}
	rank := func(id string) int {
		if i := slices.Index(longestIDs, id); i >= 0 {
			return i
		}
		return len(longestIDs)
	}
	slices.SortStableFunc(missing, func(a, b string) int { return rank(a) - rank(b) })
	if len(missing) > 0 {
		for _, r := range runIDs(t, missing, 4, nil) {
			memo.runs[r.ID] = r
		}
	}
	out := make([]RunResult, len(ids))
	for i, id := range ids {
		out[i] = memo.runs[id]
	}
	return out
}

// runIDs runs ids once through RunAll at the given parallelism and arm
// and fails the test on an error or a result out of place.
func runIDs(t *testing.T, ids []string, parallelism int, arm *Probes) []RunResult {
	t.Helper()
	results, err := RunAll(context.Background(), ids, parallelism, arm)
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
	return results
}

// sameAsMemo requires each deliberate re-run's output to equal the bytes
// of its id's memoized run, in one subtest per id.
func sameAsMemo(t *testing.T, reruns []RunResult) {
	t.Helper()
	var ids []string
	for _, r := range reruns {
		ids = append(ids, r.ID)
	}
	for i, want := range memoRuns(t, ids...) {
		got := reruns[i]
		t.Run(got.ID, func(t *testing.T) {
			if got.Err != nil {
				t.Fatal(got.Err)
			}
			if !bytes.Equal(got.Output, want.Output) {
				t.Errorf("a re-run of %s diverged from its memoized run:\n%s",
					got.ID, lineDiff("memoized run", string(want.Output), string(got.Output)))
			}
		})
	}
}

// rerunIDs are experiments that finish in well under 200ms, so the two
// tests below can repeat them for about a second in total. Under -short
// or the race detector they re-run shortIDs' first two instead.
var rerunIDs = []string{"table1", "fig4", "fig14", "scenario-replay",
	"devolve-invalidate", "replica-scale-out"}

func repeatIDs() []string {
	if testing.Short() || raceEnabled {
		return shortIDs[:2]
	}
	return rerunIDs
}

// TestSameSeedByteIdentical runs each experiment again, serially and
// outside the runner, and requires the bytes of its memoized run: every
// experiment builds its world on a freshly seeded sim.Engine, so a repeat
// run in the same process must reproduce them. Any divergence means
// nondeterminism leaked into a model (map iteration, wall-clock reads,
// shared state across runs).
func TestSameSeedByteIdentical(t *testing.T) {
	var reruns []RunResult
	for _, id := range repeatIDs() {
		e, _ := ByID(id)
		reruns = append(reruns, runCaptured(e, nil))
	}
	sameAsMemo(t, reruns)
}

// TestSerialParallelIdentical re-runs the same ids through the runner
// serially and at parallelism 2 and one worker per id, and requires each
// output to equal the memoized parallelism-4 run's. Goroutine
// interleaving must not be observable.
func TestSerialParallelIdentical(t *testing.T) {
	ids := repeatIDs()
	want := memoRuns(t, ids...)
	for _, par := range []int{1, 2, len(ids)} {
		for i, r := range runIDs(t, ids, par, nil) {
			if !bytes.Equal(r.Output, want[i].Output) {
				t.Errorf("parallelism %d: %s differs from its memoized parallelism-4 run", par, r.ID)
			}
		}
	}
}

// TestElasticDeterministic re-runs the elastic experiment under the
// parallel runner, paired with another experiment so the parallelism is
// real, and requires the memoized bytes: balancer decisions ride the sim
// clock only.
func TestElasticDeterministic(t *testing.T) {
	sameAsMemo(t, runIDs(t, []string{"elastic", "fig4"}, 2, nil))
}

// TestObsSLOTableDeterministic re-runs obs-slo serially and requires the
// memoized bytes: the digest path itself (not just the underlying
// simulation) must be deterministic.
func TestObsSLOTableDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sameAsMemo(t, runIDs(t, []string{"obs-slo"}, 1, nil))
}

// obsSLODigest holds obs-slo's own end-of-run view as
// `scotchsim run -health-json` writes a list of one digest. On a mismatch the
// test writes what it got to obsSLODigestGot; obsSLODigestRegen, run from
// the repo root after that failure, copies it over the pinned file.
var (
	obsSLODigest      = "testdata/obs_slo_digest.json"
	obsSLODigestGot   = filepath.Join(os.TempDir(), "obs_slo_digest.json")
	obsSLODigestRegen = "cp " + obsSLODigestGot + " internal/experiments/" + obsSLODigest
)

// TestObsSLODigest compares obs-slo's memoized view, series timelines,
// SLO peaks and burn timelines included, with its pinned JSON.
func TestObsSLODigest(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	if err := enc.Encode([]*obs.ClusterView{memoRuns(t, "obs-slo")[0].result.(obsSLOResult).digest}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(obsSLODigest)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		if err := os.WriteFile(obsSLODigestGot, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		// The file runs to thousands of lines, too many for lineDiff's
		// quadratic table: name the first line that differs.
		a, b := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		t.Errorf("obs-slo's digest differs from %s at line %d (%d lines, got %d)\nIf the shift is intended, regenerate the file from the repo root with\n  %s",
			obsSLODigest, i+1, len(a), len(b), obsSLODigestRegen)
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

// lineDiff renders a unified-style diff of want, read from path, against
// got: lines kept by a longest common subsequence are prefixed ' ', lines
// only in want '-' and lines only in got '+'.
func lineDiff(path, want, got string) string {
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
	sb.WriteString("--- " + path + "\n+++ this run\n")
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

// TestGolden compares each experiment's memoized output with its section
// of the golden file. Every experiment builds its world on a freshly
// seeded sim.Engine and the file was recorded by an earlier process, so a
// match pins both that a seed reproduces its bytes and that worker
// interleaving is not observable. A mismatch means a model changed
// behaviour or nondeterminism leaked in (map iteration, wall-clock reads,
// state shared across runs).
func TestGolden(t *testing.T) {
	checkGolden(t, memoRuns(t, goldenIDs()...))
}

// checkGolden compares each result's output with its section of the
// golden file, in one subtest per id, and returns the results. Probes
// only read the simulation, so armed output must match the clean bytes
// too.
func checkGolden(t *testing.T, results []RunResult) []RunResult {
	t.Helper()
	sections := goldenSections(t)
	for _, r := range results {
		got := string(r.Output) + "\n"
		t.Run(r.ID, func(t *testing.T) {
			want, ok := sections[r.ID]
			if !ok {
				t.Fatalf("%s has no section in %s; regenerate it from the repo root with\n  %s",
					r.ID, goldenPath, goldenRegen)
			}
			if got != want {
				t.Errorf("%s differs from %s:\n%s\nIf the shift is intended, document it in EXPERIMENTS.md and regenerate the file from the repo root with\n  %s",
					r.ID, goldenPath, lineDiff(goldenPath, want, got), goldenRegen)
			}
		})
	}
	return results
}

// TestRunAllUnknownID verifies the runner rejects unknown experiments
// before starting any work.
func TestRunAllUnknownID(t *testing.T) {
	if _, err := RunAll(context.Background(), []string{"table1", "nope"}, 2, nil); err == nil {
		t.Fatal("expected error for unknown experiment id")
	}
}

// TestRunAllCancellation verifies a canceled context stops the feed: with
// parallelism 1 and a pre-canceled context, no experiment should start.
func TestRunAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunAll(ctx, []string{"table1", "fig14"}, 1, nil)
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
	registry = append(registry, Experiment{
		ID:    id,
		Title: "always fails (test only)",
		Run:   func(io.Writer, *Probes) (any, error) { return nil, errors.New("boom") },
	})
	defer func() { registry = registry[:len(registry)-1] }()

	results, err := RunAll(context.Background(), []string{"table1", id}, 1, nil)
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
