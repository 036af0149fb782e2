GO ?= go

.PHONY: all build test short race vet doclint linkcheck golden golden-poison claims examples microbench bench-smoke bench-compare trace-sample chaos trace-chaos fuzz-short scenario-cdf devolve obs balance cover clean

all: build test

build:
	$(GO) build ./...

# Tier-1 gate: the full test suite (TestGolden checks every experiment
# against the golden file).
test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

# Race gate: everything that spawns goroutines (ofnet live switches, the
# parallel experiment runner) must be clean under the race detector.
race:
	$(GO) test -race ./...

# Vet gate: go vet, also over the scotchpoison-only files in sim and
# packet, and every Go file as gofmt prints it.
vet:
	$(GO) vet ./...
	$(GO) vet -tags scotchpoison ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# Documentation gate: every internal package needs a package comment, the
# scotch/cluster/devolve/fault/obs/balance packages need docs on every
# exported symbol, every exported type, constant and variable under
# internal/ needs a reference outside its own package's tests, and every
# function and method declared under internal/ must be linked into a
# binary: doclint builds every main package that imports internal/ in one
# `go build -gcflags=all=-l` and reads their symbols with `go tool nm`
# (internal/testsupport is exempt; a binary linking reflect.Value.Method
# or MethodByName fails it). It prints, as notes, the functions only the
# benchmark links.
doclint:
	$(GO) run ./cmd/doclint

# Markdown gate: every relative link and heading anchor in the repo's
# markdown must resolve (offline, GitHub anchor rules).
linkcheck:
	$(GO) run ./cmd/linkcheck

# Golden output gate: every experiment's output, minus its wall-time
# lines, must match internal/experiments/testdata/all.golden byte for
# byte. `go test ./internal/experiments` also checks the armed run's
# -stages -health -balance text (TestArmedGolden, armed.golden) and
# obs-slo's own end-of-run view as -health-json encodes it
# (TestObsSLODigest, obs_slo_digest.json). A deliberate shift is
# documented in EXPERIMENTS.md and each file regenerated from the repo
# root with
#   all.golden:   go run ./cmd/scotchsim -parallel 2 all | grep -v ' wall time)$' > internal/experiments/testdata/all.golden
#   armed.golden: go run ./cmd/scotchsim run -stages -health -balance fig14 elastic cluster-migrate obs-slo | grep -v ' wall time)$' > internal/experiments/testdata/armed.golden
#   obs_slo_digest.json: go test ./internal/experiments -run 'TestObsSLODigest$' writes what it got to
#     ${TMPDIR:-/tmp}/obs_slo_digest.json on a mismatch; copy it over internal/experiments/testdata/obs_slo_digest.json
golden:
	$(GO) run ./cmd/scotchsim -parallel 2 all > golden.out
	grep -v ' wall time)$$' golden.out | diff -u internal/experiments/testdata/all.golden -

# Poison gate (DESIGN.md §14, "The control-channel frame", "The live
# connection" and "The data-plane packet"): with the scotchpoison tag every
# recycled control-channel frame is overwritten with 0xAB, the receivers'
# scratch messages are zeroed after each callback, and every released
# data-plane packet and finished emitter box is overwritten instead of
# pooled, so anything that keeps a frame, a decoded message or a packet past
# its callback without copying shifts a golden output or fails a package
# test. A flow table overwrites each rule it retires before reusing it; the
# flowtable tests check its reused results and recycled rules.
golden-poison:
	$(GO) test -tags scotchpoison ./internal/experiments -run 'Golden'
	$(GO) test -tags scotchpoison ./internal/sim ./internal/flowtable ./internal/device ./internal/controller ./internal/scotch ./internal/cluster ./internal/packet ./internal/workload ./internal/devolve ./internal/ofnet

# Claims table: every claim's value, bound and margin, including the
# rows checked at more than one seed (one subtest per seed), as claims.txt.
claims:
	$(GO) test -count=1 -v -run TestClaims ./internal/experiments > claims.txt || { cat claims.txt; exit 1; }

# Example gate: the four simulated examples must print their committed
# examples/<name>/expected.txt byte for byte (a deliberate change
# regenerates it with `go run ./examples/<name> > examples/<name>/expected.txt`);
# overlaytcp runs over live loopback TCP and only has to exit 0.
examples:
	@for e in quickstart policychain ddosmitigation flashcrowd; do \
		echo "examples/$$e"; \
		$(GO) run ./examples/$$e > example_$$e.out || exit 1; \
		diff -u examples/$$e/expected.txt example_$$e.out || exit 1; \
	done
	$(GO) run ./examples/overlaytcp

# The chaos experiments (§5 reliability mechanisms under injected faults)
# plus the elastic pool cycle (a pool-only balancer) and the devolution
# invalidation run, which exercise the same live-mutation paths from the
# control-loop and policy-distribution sides.
chaos:
	$(GO) run ./cmd/scotchsim run chaos-vswitch chaos-partition chaos-churn elastic devolve-invalidate

# Chaos + elastic trace artifact: fault marks, the balancer's
# balance:grow-pool / balance:drain-pool resize marks, and control-path
# spans for the fast experiments (Chrome trace-event JSON).
trace-chaos:
	$(GO) run ./cmd/scotchsim run chaos-partition chaos-churn elastic -trace trace_chaos.json

# The in-package Benchmark* functions (sim, flowtable, openflow, packet,
# experiments), one iteration each: `go test` only compiles them, so this
# is what keeps them running. Numbers come from `-benchtime` runs by hand;
# the performance gate is benchmark/.
microbench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# Test-sized run of the benchmark (benchmark/README.md): all four
# workloads, 2 simulated s and 0.5 s live, written as a result file.
bench-smoke:
	$(GO) run ./benchmark -smoke -out bench_smoke.json

# Regression gate between two benchmark result files, e.g.
#   make bench-compare OLD=old.json NEW=bench_smoke.json
bench-compare:
	$(GO) run ./benchmark -compare $(OLD) $(NEW)

# Sample control-path trace (Chrome trace-event JSON, loadable in
# chrome://tracing / Perfetto).
trace-sample:
	$(GO) run ./cmd/scotchsim run fig14 -trace trace_fig14.json

# Short fuzz pass over every native fuzz target (the CSV trace parser, the
# OpenFlow codec, the live connection's frame reader and the flow table
# against its linear reference), a few seconds each; new findings land in
# the build cache,
# reproducers in testdata/fuzz/.
fuzz-short:
	$(GO) test -run xxx -fuzz FuzzTraceCSV -fuzztime 5s ./internal/workload/
	$(GO) test -run xxx -fuzz FuzzMessageRoundTrip -fuzztime 5s ./internal/openflow/
	$(GO) test -run xxx -fuzz FuzzMatchRoundTrip -fuzztime 5s ./internal/openflow/
	$(GO) test -run xxx -fuzz FuzzUnmarshalIntoReuse -fuzztime 5s ./internal/openflow/
	$(GO) test -run xxx -fuzz FuzzConnRecv -fuzztime 5s ./internal/ofnet/
	$(GO) test -run xxx -fuzz FuzzTableOps -fuzztime 5s ./internal/flowtable/

# Per-tenant flow-setup latency CDF table from the multi-tenant scenario
# (the CI artifact proving the DDoS-isolation bound).
scenario-cdf:
	$(GO) run ./cmd/scotchsim run scenario-multitenant | tee scenario_multitenant.txt

# Devolution ablation + invalidation tables (the CI artifact proving the
# pool-factor Packet-In reduction and the no-stale-policy invariants).
devolve:
	$(GO) run ./cmd/scotchsim run devolve-ablation devolve-invalidate | tee devolve_ablation.txt

# Observatory health digest for the SLO burn experiment (the CI artifact
# proving the healthy -> burning -> healthy verdict cycle), as text and
# as the health_obs_slo.json machine-readable digest.
obs:
	$(GO) run ./cmd/scotchsim run obs-slo -health -health-json health_obs_slo.json | tee obs_slo.txt

# Joint-elasticity balancer experiments (the CI artifact proving the
# grow-while-migrating interleave with zero client loss and the
# burn-driven replica scale-out/retire cycle), with per-rig health
# digests in health_balance.json.
balance:
	$(GO) run ./cmd/scotchsim run elastic-under-migration replica-scale-out -health -health-json health_balance.json | tee balance.txt

# Coverage over the deterministic packages, with a per-function summary.
cover:
	$(GO) test -short -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1
	@echo "full per-function breakdown: go tool cover -func=coverage.out"

clean:
	$(GO) clean ./...
	rm -f coverage.out golden.out claims.txt example_*.out bench_smoke.json trace_fig14.json trace_chaos.json scenario_multitenant.txt devolve_ablation.txt obs_slo.txt health_obs_slo.json balance.txt health_balance.json
