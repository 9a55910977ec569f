#!/bin/sh
# The CI gate and the one place its commands are written. With no
# argument it runs every CI stage below in order; `./check.sh STAGE...`
# runs just the named stages. Each Makefile target is one such call, so
# `make check` runs exactly what CI runs.
#
#   build      go build and go vet
#   lint       hbspk-vet over every package, as SARIF against the baseline
#   race       the test suite under the race detector
#   chaos      seeded chaos suite, churn+reorg soak, membership checker
#   advisor    static cost analysis on the grid tree
#   conform    static<->runtime conformance gate
#   verify     schedule exploration and the reorg property sweeps
#   planner    planner benchmarks through bench/gates.txt, one auto run
#   multiproc  multi-process transport smoke
#   cover      coverage floor
#   fuzz       every wire-format and frame-layer fuzzer
#
# Two more stages run only when named: `bench` (full benchmarks into
# bench/*.txt and one gated BENCH.json) and `smoke` (quick pre-push gate).
set -eux

BENCHTIME=5000x # pvm microbenchmark iterations, fixed so runs compare
FUZZTIME=15s    # per fuzzer: CI smoke, not a campaign

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# budget NAME CMD...: run CMD and fail if it takes more than 30s of wall
# time.
budget() {
	name=$1
	shift
	start=$(date +%s)
	"$@"
	elapsed=$(($(date +%s) - start))
	echo "$name wall time: ${elapsed}s (budget 30s)"
	[ "$elapsed" -le 30 ]
}

stage_build() {
	go build ./...
	go vet ./...
}

# Zero-findings gate (DESIGN.md §5.8): the full analyzer suite — SPMD
# alignment and buffer ownership included — over every package, tests
# too, must report nothing that is not under an audited //hbspk:ignore.
# Findings are also emitted as SARIF and compared against the committed
# empty baseline, so any new finding fails even if exit codes drift;
# the run must fit the 30s wall-time budget.
stage_lint() {
	mkdir -p results
	budget "hbspk-vet sarif run" go run ./cmd/hbspk-vet -sarif results/vet.sarif ./...
	new=$(grep -c '"ruleId"' results/vet.sarif || true)
	base=$(grep -c '"ruleId"' bench/vet_baseline.sarif || true)
	if [ "$new" -ne "$base" ]; then
		echo "hbspk-vet findings drifted from the committed baseline: $new result(s) vs $base" >&2
		exit 1
	fi
}

stage_race() {
	go test -race ./...
}

# Seeded chaos smoke: fault injection across the fabric, both engines,
# and the fault-tolerant collectives, under the race detector. Already
# part of the race suite; rerun by name so a chaos regression is
# unmistakable in CI output.
#
# Seeded churn+reorg soak (DESIGN.md §5.7): elastic membership with
# hashed join/leave points, a straggler burst and barrier-time
# rebalancing every third superstep, on both engines — the virtual
# engine must reproduce itself bit-for-bit and the concurrent engine
# must agree on fold and final layout.
#
# Exhaustive membership checker (DESIGN.md §5.7): every interleaving of
# sync arrivals with up to three crash/leave/join events on flat and
# 2-level trees of up to five leaves, driven through the pure membership
# core with no goroutines — every completed barrier must find its
# members at one generation with identical acknowledgments and views.
stage_chaos() {
	go test -race -count=1 -run Chaos ./internal/fabric/ ./internal/hbsp/ ./internal/collective/
	budget "churn+reorg soak" go test -race -count=1 -run 'ChurnReorgSoak' ./internal/hbsp/
	budget "exhaustive membership checker" go test -race -count=1 -run 'TestMembershipExhaustive' ./internal/hbsp/
}

# Static cost analysis (DESIGN.md §5.6): the analyzer suite plus the
# variantcheck advisor over the repo's non-test code on the grid tree
# must report nothing (tests deliberately exercise every variant at
# every size, so advice there is noise).
stage_advisor() {
	budget "hbspk-vet full-suite" go run ./cmd/hbspk-vet -skip-tests -tree grid -cost-ratio 1.2 ./...
}

# Static<->runtime conformance gate: every delivery observed in a real
# hbspk-sim run must be explained by an edge of the exported static
# commgraph; a forged run with an undeclared send must be rejected.
stage_conform() {
	go run ./cmd/hbspk-vet -commgraph-out "$tmp/graph.json" ./...
	go run ./cmd/hbspk-sim -machine grid -collective gather-hier -events-out "$tmp/run.jsonl" >/dev/null
	go run ./cmd/hbspk-vet -conform-graph "$tmp/graph.json" -conform-events "$tmp/run.jsonl" >/dev/null
	if go run ./cmd/hbspk-vet -conform-graph cmd/hbspk-vet/testdata/conformance/graph.json \
		-conform-events cmd/hbspk-vet/testdata/conformance/events-undeclared.jsonl >/dev/null; then
		echo "conformance gate failed to reject an undeclared send" >&2
		exit 1
	fi
}

# Schedule exploration (happens-before checker armed) must certify the
# shipped collectives delivery-order independent under 4 seeded
# permutations each, and the reorg property sweeps prove rebalancing
# preserves topology shape, the leaf multiset and every collective's
# sequential oracle.
stage_verify() {
	for c in gather bcast-hier reduce-hier; do
		go run ./cmd/hbspk-sim -machine ucf -collective "$c" -n 4096 -pure -explore 4
	done
	go test -count=1 -run 'TestReorganizePreservesShapeAndLeaves|TestPlanReorgDeterministic' ./internal/model/
	go test -count=1 -run 'TestSweepOnReorganizedTrees' ./internal/collective/
}

# planner_bench OUT runs the planner benchmarks into OUT.
planner_bench() {
	go test -run '^$' -bench 'BenchmarkPlannerSweep|BenchmarkPlannedDispatch|BenchmarkDirectDispatch|BenchmarkDecideHit' \
		-benchtime 1x ./internal/plan/ >"$1"
}

# Auto-tuned planner smoke (DESIGN.md §5.9): the planner benchmarks
# through the hbspk/internal/plan lines of bench/gates.txt, plus one
# hbspk-sim auto run.
planner_smoke() {
	planner_bench "$tmp/planner.txt"
	go run ./cmd/hbspk-benchjson -gates bench/gates.txt -o "$tmp/planner.json" "$tmp/planner.txt"
	go run ./cmd/hbspk-sim -machine ucf -collective auto -n 200000 -rounds 4 -pure >/dev/null
}

stage_planner() {
	budget "planner smoke" planner_smoke
}

# Multi-process transport smoke (DESIGN.md §5.10): one coordinator and
# two worker OS processes run the verified broadcast+reduce SPMD
# program over a unix socket — vector clocks, payload checksums and a
# closed-form reduce oracle checked end to end. Workers dial with
# retry, so no startup sleep is needed.
multiproc_smoke() {
	go build -o "$tmp/hbspk-worker" ./cmd/hbspk-worker
	"$tmp/hbspk-worker" -listen "unix:$tmp/coord.sock" -nprocs 3 &
	coord=$!
	"$tmp/hbspk-worker" -connect "unix:$tmp/coord.sock" -pid 1 -nprocs 3 &
	w1=$!
	"$tmp/hbspk-worker" -connect "unix:$tmp/coord.sock" -pid 2 -nprocs 3 &
	w2=$!
	wait "$coord"
	wait "$w1"
	wait "$w2"
}

stage_multiproc() {
	budget "multi-process transport smoke" multiproc_smoke
}

# Coverage floor: total statement coverage must not drop below the
# baseline recorded in bench/coverage_baseline.txt. The profile stays
# in bench/cover.out for `go tool cover -html` browsing.
stage_cover() {
	go test -coverprofile=bench/cover.out ./... >/dev/null
	total=$(go tool cover -func=bench/cover.out | awk '/^total:/ {sub(/%/,"",$3); print $3}')
	floor=$(cat bench/coverage_baseline.txt)
	echo "total coverage ${total}% (floor ${floor}%)"
	awk -v t="$total" -v f="$floor" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }'
}

# Every pvm wire-format and wiretrans frame-layer fuzzer, $FUZZTIME each.
stage_fuzz() {
	for f in FuzzBufferRoundTrip FuzzUnpack; do
		go test ./internal/pvm/ -run '^$' -fuzz "$f" -fuzztime "$FUZZTIME"
	done
	for f in FuzzFrameRoundTrip FuzzReadFrame FuzzBatchBody; do
		go test ./internal/pvm/wiretrans/ -run '^$' -fuzz "$f" -fuzztime "$FUZZTIME"
	done
}

# Full benchmarks: the pvm fabric microbenchmarks at a fixed iteration
# count (comparable across runs), the figure benchmarks, the reorg
# makespan and the planner sweep, written to bench/*.txt and converted
# into one BENCH.json that every gate of bench/gates.txt must pass.
stage_bench() {
	go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" ./internal/pvm/ >bench/pvm.txt
	go test -run '^$' -bench . -benchmem -benchtime 1x . >bench/figures.txt
	go test -run '^$' -bench 'BenchmarkReorgMakespan|BenchmarkRankedLeaves|BenchmarkRank$|BenchmarkPlanReorg' \
		-benchmem -benchtime 100x ./internal/hbsp/ ./internal/model/ >bench/reorg.txt
	planner_bench bench/planner.txt
	cat bench/pvm.txt bench/figures.txt bench/reorg.txt bench/planner.txt
	go run ./cmd/hbspk-benchjson -baseline bench/baseline_pre_pr4.txt -gates bench/gates.txt \
		-o BENCH.json bench/pvm.txt bench/figures.txt bench/reorg.txt bench/planner.txt
}

# Quick pre-push gate: build everything, run a 10-iteration slice of
# the fabric benchmarks through the JSON converter, and exercise
# hbspk-bench's profile flags on one figure. Any build or run error
# fails; no timing gates.
stage_smoke() {
	go build ./...
	go test -run '^$' -bench 'BenchmarkSendRecv|BenchmarkMcastFanout|BenchmarkMailboxContention' \
		-benchmem -benchtime 10x ./internal/pvm/ >"$tmp/bench.txt"
	go run ./cmd/hbspk-benchjson -baseline bench/baseline_pre_pr4.txt -o "$tmp/bench.json" "$tmp/bench.txt"
	go run ./cmd/hbspk-bench -fig 3a -cpuprofile "$tmp/cpu.pprof" \
		-memprofile "$tmp/mem.pprof" -mutexprofile "$tmp/mutex.pprof" >/dev/null
}

if [ $# -eq 0 ]; then
	set -- build lint race chaos advisor conform verify planner multiproc cover fuzz
fi
for stage in "$@"; do
	if ! command -v "stage_$stage" >/dev/null; then
		echo "check.sh: unknown stage $stage" >&2
		exit 2
	fi
done
for stage in "$@"; do
	"stage_$stage"
done
