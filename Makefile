# Development entry points. `make check` is the CI gate: build, go vet,
# the HBSP^k model lint suite, and the test suite under the race
# detector. A malformed tree never merges with these green.

GO ?= go

.PHONY: check build vet lint vet-sarif test race chaos verify fuzz bench cover clean

check: build vet lint race chaos verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs hbspk-vet, the model-invariant checkers of internal/analysis
# (SPMD alignment, communication topology, delivered-buffer lifetimes,
# buffer ownership and sent-data reuse, dropped errors, cost parameters
# and bounds, lock order, stale ignore directives), over every package
# including tests.
lint:
	$(GO) run ./cmd/hbspk-vet ./...

# vet-sarif runs the same suite and writes the findings as a SARIF
# 2.1.0 log for code-scanning UIs. A clean tree produces a log whose
# runs[0].results is empty — bench/vet_baseline.sarif records exactly
# that, and check.sh fails on any drift from it.
vet-sarif:
	$(GO) run ./cmd/hbspk-vet -sarif results/vet.sarif ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos reruns the seeded fault-injection suite by name — fabric fates,
# engine crash/shrink/checkpoint paths, and the fault-tolerant
# collective matrix — so a chaos regression is unmistakable in CI, then
# the exhaustive membership checker (DESIGN.md §5.7).
chaos:
	$(GO) test -race -count=1 -run Chaos ./internal/fabric/ ./internal/hbsp/ ./internal/collective/
	$(GO) test -race -count=1 -run TestMembershipExhaustive ./internal/hbsp/

# verify smoke-tests the semantic checker: schedule exploration with
# the happens-before checker armed must certify gather, bcast and
# reduce delivery-order independent under 4 seeded permutations each,
# and the reorg property sweep proves rebalancing preserves topology
# shape, the leaf multiset and every collective's sequential oracle.
# The final stanza is the multi-process transport smoke: a coordinator
# and two worker OS processes run the verified broadcast+reduce SPMD
# program over a unix socket (DESIGN.md §5.10).
verify:
	$(GO) run ./cmd/hbspk-sim -machine ucf -collective gather -n 4096 -pure -explore 4
	$(GO) run ./cmd/hbspk-sim -machine ucf -collective bcast-hier -n 4096 -pure -explore 4
	$(GO) run ./cmd/hbspk-sim -machine ucf -collective reduce-hier -n 4096 -pure -explore 4
	$(GO) test -count=1 -run 'TestReorganizePreservesShapeAndLeaves|TestPlanReorgDeterministic' ./internal/model/
	$(GO) test -count=1 -run 'TestSweepOnReorganizedTrees' ./internal/collective/
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/hbspk-worker" ./cmd/hbspk-worker || exit 1; \
	"$$tmp/hbspk-worker" -listen "unix:$$tmp/coord.sock" -nprocs 3 & c=$$!; \
	"$$tmp/hbspk-worker" -connect "unix:$$tmp/coord.sock" -pid 1 -nprocs 3 & w1=$$!; \
	"$$tmp/hbspk-worker" -connect "unix:$$tmp/coord.sock" -pid 2 -nprocs 3 & w2=$$!; \
	wait "$$c" && wait "$$w1" && wait "$$w2"

# bench runs the pvm fabric microbenchmarks at a fixed iteration count
# (comparable across runs) plus the figure benchmarks, then emits
# machine-readable BENCH_PR4.json: ns/op, B/op and allocs/op per
# benchmark, with improvement factors against the committed pre-PR4
# baseline. Two gates: the send path keeps its >= 2x allocs/op win over
# the pre-PR4 baseline, and the observability-off send path
# (BenchmarkSendRecvObsvOff) stays within 5% of BenchmarkSendRecv on
# ns/op and allocs/op in the same run.
#
# The planner stanza emits BENCH_PR9.json with two gates: across the
# payload-size × tree sweep the auto-tuned planner's modeled cost stays
# within 0.1% of the best fixed variant per cell (so it beats every
# fixed-variant baseline), and the planner-dispatched broadcast stays
# within 5% of a direct invocation of the same variant on paired
# dispatch-overhead and allocations. -min-pairs pins the grid size so
# the gate cannot silently shrink.
BENCHTIME ?= 5000x
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./internal/pvm/ | tee bench/pvm.txt
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x . | tee bench/figures.txt
	$(GO) run ./cmd/hbspk-benchjson -baseline bench/baseline_pre_pr4.txt \
		-min-alloc-improvement 'BenchmarkSendRecv/:2,BenchmarkMcastFanout:2' \
		-max-rel 'BenchmarkSendRecvObsvOff=BenchmarkSendRecv:1.05' \
		-o BENCH_PR4.json bench/pvm.txt bench/figures.txt
	@echo wrote BENCH_PR4.json
	$(GO) test -run '^$$' -bench 'BenchmarkReorgMakespan|BenchmarkRankedLeaves|BenchmarkRank$$|BenchmarkPlanReorg' \
		-benchmem -benchtime 100x ./internal/hbsp/ ./internal/model/ | tee bench/reorg.txt
	$(GO) run ./cmd/hbspk-benchjson \
		-max-metric-rel 'BenchmarkReorgMakespan/reorg=BenchmarkReorgMakespan/frozen:model-cost:0.9' \
		-o BENCH_PR7.json bench/reorg.txt
	@echo wrote BENCH_PR7.json
	$(GO) test -run '^$$' -bench 'BenchmarkPlannerSweep|BenchmarkPlannedDispatch|BenchmarkDirectDispatch|BenchmarkDecideHit' \
		-benchtime 1x ./internal/plan/ | tee bench/planner.txt
	$(GO) run ./cmd/hbspk-benchjson \
		-max-metric-rel 'BenchmarkPlannerSweep/planner=BenchmarkPlannerSweep/fixedbest:model-cost:1.001,BenchmarkPlannedDispatch=BenchmarkDirectDispatch:dispatch-overhead:1.05,BenchmarkPlannedDispatch=BenchmarkDirectDispatch:dispatch-allocs:1.05' \
		-min-pairs 26 \
		-o BENCH_PR9.json bench/planner.txt
	@echo wrote BENCH_PR9.json

# cover enforces the coverage floor: total statement coverage must not
# drop below bench/coverage_baseline.txt (percent, one line). The
# profile lands in bench/cover.out for go tool cover -html browsing.
cover:
	$(GO) test -coverprofile=bench/cover.out ./...
	@total=$$($(GO) tool cover -func=bench/cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	floor=$$(cat bench/coverage_baseline.txt); \
	echo "total coverage $${total}% (floor $${floor}%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $${total}% fell below the $${floor}% floor"; exit 1; }

# fuzz gives each pvm wire-format and wiretrans frame-layer fuzzer a
# short budget; CI smoke, not a campaign.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/pvm/ -fuzz FuzzBufferRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pvm/ -fuzz FuzzUnpack -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pvm/wiretrans/ -run '^$$' -fuzz FuzzFrameRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pvm/wiretrans/ -run '^$$' -fuzz FuzzReadFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pvm/wiretrans/ -run '^$$' -fuzz FuzzBatchBody -fuzztime $(FUZZTIME)

clean:
	$(GO) clean ./...
