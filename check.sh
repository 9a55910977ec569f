#!/bin/sh
# The CI gate, runnable without make: build, go vet, the hbspk-vet model
# lint suite, the tests under the race detector, the seeded chaos smoke,
# and a short fuzz pass over the pvm wire format.
set -eux

# `./check.sh smoke` is the quick pre-push gate: build everything, run
# a 10-iteration slice of the fabric benchmarks through the JSON
# converter, and exercise hbspk-bench's profile flags on one figure.
# Any build or run error fails the script (set -e); no timing gates.
if [ "${1:-}" = smoke ]; then
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	go build ./...
	go test -run '^$' -bench 'BenchmarkSendRecv|BenchmarkMcastFanout|BenchmarkMailboxContention' \
		-benchmem -benchtime 10x ./internal/pvm/ >"$tmp/bench.txt"
	go run ./cmd/hbspk-benchjson -baseline bench/baseline_pre_pr4.txt -o "$tmp/bench.json" "$tmp/bench.txt"
	go run ./cmd/hbspk-bench -fig 3a -cpuprofile "$tmp/cpu.pprof" \
		-memprofile "$tmp/mem.pprof" -mutexprofile "$tmp/mutex.pprof" >/dev/null
	exit 0
fi

go build ./...
go vet ./...

# Zero-findings gate (DESIGN.md §5.8): the full analyzer suite — SPMD
# alignment and buffer ownership included — over every package, tests
# too, must report nothing that is not under an audited //hbspk:ignore.
# Findings are also emitted as SARIF and compared against the committed
# empty baseline, so any new finding fails even if exit codes drift;
# the run must fit the 30s wall-time budget.
start=$(date +%s)
mkdir -p results
go run ./cmd/hbspk-vet -sarif results/vet.sarif ./...
elapsed=$(( $(date +%s) - start ))
echo "hbspk-vet sarif run wall time: ${elapsed}s (budget 30s)"
[ "$elapsed" -le 30 ]
new=$(grep -c '"ruleId"' results/vet.sarif || true)
base=$(grep -c '"ruleId"' bench/vet_baseline.sarif || true)
if [ "$new" -ne "$base" ]; then
	echo "hbspk-vet findings drifted from the committed baseline: $new result(s) vs $base" >&2
	exit 1
fi

go test -race ./...

# Seeded chaos smoke: fault injection across the fabric, both engines,
# and the fault-tolerant collectives, under the race detector. Already
# part of the suite above; rerun by name so a chaos regression is
# unmistakable in CI output.
go test -race -count=1 -run Chaos ./internal/fabric/ ./internal/hbsp/ ./internal/collective/

# Seeded churn+reorg soak smoke (DESIGN.md §5.7): elastic membership
# with hashed join/leave points, a straggler burst and barrier-time
# rebalancing every third superstep, on both engines under the race
# detector — the virtual engine must reproduce itself bit-for-bit and
# the concurrent engine must agree on fold and final layout. Budgeted
# well inside 30s wall time.
start=$(date +%s)
go test -race -count=1 -run 'ChurnReorgSoak' ./internal/hbsp/
elapsed=$(( $(date +%s) - start ))
echo "churn+reorg soak wall time: ${elapsed}s (budget 30s)"
[ "$elapsed" -le 30 ]

# Exhaustive membership checker (DESIGN.md §5.7): every interleaving of
# sync arrivals with up to three crash/leave/join events on flat and
# 2-level trees of up to five leaves, driven through the pure membership
# core with no goroutines, under the race detector — every completed
# barrier must find its members at one generation with identical
# acknowledgments and views. Budgeted inside 30s wall time.
start=$(date +%s)
go test -race -count=1 -run 'TestMembershipExhaustive' ./internal/hbsp/
elapsed=$(( $(date +%s) - start ))
echo "exhaustive membership checker wall time: ${elapsed}s (budget 30s)"
[ "$elapsed" -le 30 ]

# Static cost analysis (DESIGN.md §5.6): the analyzer suite plus the
# variantcheck advisor over the repo's non-test code on the grid tree
# must report nothing (tests deliberately exercise every variant at
# every size, so advice there is noise), and the full-suite run must
# finish inside the 30s wall-time budget.
start=$(date +%s)
go run ./cmd/hbspk-vet -skip-tests -tree grid -cost-ratio 1.2 ./...
elapsed=$(( $(date +%s) - start ))
echo "hbspk-vet full-suite wall time: ${elapsed}s (budget 30s)"
[ "$elapsed" -le 30 ]

# Static<->runtime conformance gate: every delivery observed in a real
# hbspk-sim run must be explained by an edge of the exported static
# commgraph; a forged run with an undeclared send must be rejected.
conftmp=$(mktemp -d)
go run ./cmd/hbspk-vet -commgraph-out "$conftmp/graph.json" ./...
go run ./cmd/hbspk-sim -machine grid -collective gather-hier -events-out "$conftmp/run.jsonl" >/dev/null
go run ./cmd/hbspk-vet -conform-graph "$conftmp/graph.json" -conform-events "$conftmp/run.jsonl" >/dev/null
if go run ./cmd/hbspk-vet -conform-graph cmd/hbspk-vet/testdata/conformance/graph.json \
	-conform-events cmd/hbspk-vet/testdata/conformance/events-undeclared.jsonl >/dev/null; then
	echo "conformance gate failed to reject an undeclared send" >&2
	exit 1
fi
rm -rf "$conftmp"

# Verification smoke: schedule exploration (happens-before checker
# armed) must certify the shipped collectives delivery-order
# independent under 4 seeded permutations each.
go run ./cmd/hbspk-sim -machine ucf -collective gather -n 4096 -pure -explore 4
go run ./cmd/hbspk-sim -machine ucf -collective bcast-hier -n 4096 -pure -explore 4
go run ./cmd/hbspk-sim -machine ucf -collective reduce-hier -n 4096 -pure -explore 4

# Auto-tuned planner smoke (DESIGN.md §5.9): the planner benchmarks run
# through the same hbspk-benchjson gates make bench enforces — planner
# within 0.1% of the per-cell best fixed variant on modeled cost, cached
# dispatch within 5% of a direct call — plus one hbspk-sim auto run, all
# inside a 30s wall-time budget.
start=$(date +%s)
plantmp=$(mktemp -d)
go test -run '^$' -bench 'BenchmarkPlannerSweep|BenchmarkPlannedDispatch|BenchmarkDirectDispatch|BenchmarkDecideHit' \
	-benchtime 1x ./internal/plan/ >"$plantmp/planner.txt"
go run ./cmd/hbspk-benchjson \
	-max-metric-rel 'BenchmarkPlannerSweep/planner=BenchmarkPlannerSweep/fixedbest:model-cost:1.001,BenchmarkPlannedDispatch=BenchmarkDirectDispatch:dispatch-overhead:1.05,BenchmarkPlannedDispatch=BenchmarkDirectDispatch:dispatch-allocs:1.05' \
	-min-pairs 26 \
	-o "$plantmp/planner.json" "$plantmp/planner.txt"
go run ./cmd/hbspk-sim -machine ucf -collective auto -n 200000 -rounds 4 -pure >/dev/null
rm -rf "$plantmp"
elapsed=$(( $(date +%s) - start ))
echo "planner smoke wall time: ${elapsed}s (budget 30s)"
[ "$elapsed" -le 30 ]

# Multi-process transport smoke (DESIGN.md §5.10): one coordinator and
# two worker OS processes run the verified broadcast+reduce SPMD
# program over a unix socket — vector clocks, payload checksums and a
# closed-form reduce oracle checked end to end — inside a 30s wall-time
# budget. Workers dial with retry, so no startup sleep is needed.
start=$(date +%s)
mptmp=$(mktemp -d)
go build -o "$mptmp/hbspk-worker" ./cmd/hbspk-worker
"$mptmp/hbspk-worker" -listen "unix:$mptmp/coord.sock" -nprocs 3 &
coord=$!
"$mptmp/hbspk-worker" -connect "unix:$mptmp/coord.sock" -pid 1 -nprocs 3 &
w1=$!
"$mptmp/hbspk-worker" -connect "unix:$mptmp/coord.sock" -pid 2 -nprocs 3 &
w2=$!
wait "$coord"
wait "$w1"
wait "$w2"
rm -rf "$mptmp"
elapsed=$(( $(date +%s) - start ))
echo "multi-process transport smoke wall time: ${elapsed}s (budget 30s)"
[ "$elapsed" -le 30 ]

# Coverage floor: total statement coverage must not drop below the
# baseline recorded in bench/coverage_baseline.txt.
coverout=$(mktemp)
go test -coverprofile="$coverout" ./... >/dev/null
total=$(go tool cover -func="$coverout" | awk '/^total:/ {sub(/%/,"",$3); print $3}')
rm -f "$coverout"
floor=$(cat bench/coverage_baseline.txt)
echo "total coverage ${total}% (floor ${floor}%)"
awk -v t="$total" -v f="$floor" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }'

# Wire-format and frame-layer fuzzers, ~15s each: CI smoke, not a
# campaign.
go test ./internal/pvm/ -run '^$' -fuzz FuzzBufferRoundTrip -fuzztime 15s
go test ./internal/pvm/ -run '^$' -fuzz FuzzUnpack -fuzztime 15s
go test ./internal/pvm/wiretrans/ -run '^$' -fuzz FuzzReadFrame -fuzztime 15s
