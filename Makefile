# FlowGuard reproduction — stdlib-only Go; these targets just bundle the
# common invocations.

GO ?= go

# staticcheck is optional locally (the repo is stdlib-only and cannot
# vendor it); CI installs exactly this version so local runs of
# `make staticcheck` agree with the lint job. Keep the two in sync via
# this single variable — ci.yml reads it out of the Makefile.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: all test test-short race bench bench-raw bench-compare experiments examples vet fgvet staticcheck fmt cover chaos async-smoke fuzz-smoke fleet-smoke sched-smoke property fuzz oracle-soak cover-ratchet

all: vet test

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# bench runs the orchestrated tier-1 suite via fgperf: N interleaved
# iterations, summarized into a schema-versioned BENCH_<date>.json
# trajectory artifact. bench-raw is the plain unorchestrated run.
bench:
	$(GO) run ./cmd/fgperf -short

bench-raw:
	$(GO) test -bench=. -benchmem ./...

# bench-compare re-runs the tier-1 suite and gates it against a baseline
# artifact: exit 1 on a statistically significant >10% median slowdown
# in any tier-1 hot-path benchmark (Mann-Whitney U, p < 0.05).
#   make bench-compare                      # vs the committed baseline
#   make bench-compare BASE=BENCH_2026-08-06.json
BASE ?= bench/baseline.json

bench-compare:
	$(GO) run ./cmd/fgperf -short -base $(BASE) -gate

experiments:
	$(GO) run ./cmd/fgbench -all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/webserver
	$(GO) run ./examples/attacks
	$(GO) run ./examples/fuzztrain
	$(GO) run ./examples/multiproc

chaos:
	$(GO) test -race -short -run 'Chaos' ./internal/faults/ -count=1

# async-smoke races the asynchronous checking pipeline end to end: the
# guard's conformance/containment tests, the ToPA capture-concurrency
# suite, the async slice of the chaos soak (worker stalls/crashes
# under every OnDegraded mode), the per-record annotation tests, and
# the buffer-full PMI checks, whose async rows share the ToPA's one
# region-full hook with the capture. It then repeats the allocation
# count, the worker-lifetime test and the pool ledger test 50 times, so
# a returning flake in any of them shows.
async-smoke:
	$(GO) test -race -short -run 'Async|ToPA|Chaos|Annotations|PMI' ./internal/guard/ ./internal/trace/ipt/ ./internal/faults/ -count=1
	$(GO) test -run '^(TestAsyncDrainZeroAlloc|TestAsyncPoolGoroutinesExit|TestFleetCheckPoolInvariantConcurrent)$$' ./internal/guard/ -count=50

# fleet-smoke is the CI fleet gate: a bounded flowguardd run under the
# race detector (2k processes, fork storms, invariant assertions — the
# process exits non-zero on any ledger/sharing/inheritance breach),
# plus the raced fleet test wall (fork-inheritance conformance, sharded
# admission fairness, artifact sharing, fleet chaos scenarios). It then
# races the admission tests that hold their slots through FleetPool.Hold
# 20 more times: their exact counts must not follow the scheduler.
fleet-smoke:
	$(GO) run -race ./cmd/flowguardd -smoke
	$(GO) test -race -short -run 'Fleet|Fork|Artifact|BinaryGuards' ./internal/harness/ ./internal/guard/ ./internal/itc/ ./internal/kernelsim/ ./internal/faults/ -count=1
	$(GO) test -race -run '^(TestFleetCheckPoolInvariantConcurrent|TestFleetPoolFairnessIsolation|TestFleetShedCyclesReachStats)$$' ./internal/guard/ -count=20

# sched-smoke races the preemptive multi-core world end to end: the
# time-sliced scheduler (threads, signals, core affinity), the PIP/CR3
# trace demux, the multicore guard conformance tests, the slice-boundary
# chaos scenarios, the demux round-trip property (its bounded tier-1
# seed count; `make property` runs the full sweep), one thread's
# Mprotect invalidating another thread's CPU fetch cursor, and the
# per-record annotation tests.
sched-smoke:
	$(GO) test -race -short -run 'Multicore|Demux|Preempt|Clone|Thread|Signal|SIGKILL|Slice|Gettid|Annotations' ./internal/kernelsim/ ./internal/trace/ipt/ ./internal/guard/ ./internal/faults/ ./internal/harness/ ./internal/cpu/ -count=1

# property runs the seeded conformance sweeps at their full seed count:
# fork inheritance and the PIP/CR3 demux round trip, 1000 seeds each
# (plain `go test` runs 120 of each to keep tier-1 short).
property:
	$(GO) test -run '^TestProperty(ForkInheritance|DemuxRoundTrip)$$' ./internal/harness/ -propseeds 1000 -count=1

fuzz-smoke:
	$(GO) test -run 'Fuzz' ./internal/trace/ipt/ ./internal/harness/ ./internal/perfstat/ ./internal/itc/ ./internal/cpu/ ./internal/guard/ -count=1

# Short real fuzzing campaigns, one per fuzz target (one -fuzz pattern
# per go test invocation); fuzz-smoke runs every target's seeds.
fuzz:
	$(GO) test -fuzz '^FuzzDecodeFast$$' -fuzztime 30s ./internal/trace/ipt/
	$(GO) test -fuzz FuzzTNTAnnotations -fuzztime 30s ./internal/trace/ipt/
	$(GO) test -fuzz FuzzWindowDecoder -fuzztime 30s ./internal/trace/ipt/
	$(GO) test -fuzz FuzzDecodeFullMatchesReference -fuzztime 30s ./internal/trace/ipt/
	$(GO) test -fuzz FuzzStepMatchesReference -fuzztime 30s ./internal/cpu/
	$(GO) test -fuzz FuzzRunMatchesReference -fuzztime 30s ./internal/cpu/
	$(GO) test -fuzz FuzzWindowSelectMatchesReference -fuzztime 30s ./internal/guard/
	$(GO) test -fuzz FuzzSlowCheckMatchesEventPath -fuzztime 30s ./internal/guard/
	$(GO) test -fuzz FuzzSlowResumeMatchesScratch -fuzztime 30s ./internal/guard/
	$(GO) test -fuzz FuzzFlatITCRoundTrip -fuzztime 30s ./internal/itc/
	$(GO) test -fuzz FuzzBenchArtifactRoundTrip -fuzztime 30s ./internal/perfstat/
	$(GO) test -fuzz FuzzHybridVsOracle -fuzztime 60s ./internal/harness/

# Long differential soak of the optimized hybrid pipeline against the
# naive oracle (internal/oracle); nightly CI runs this.
oracle-soak:
	$(GO) run ./cmd/fgbench -oracle 10000

# Coverage ratchet for the packages the oracle suite exercises hardest,
# and for the labeled ITC-CFG (internal/itc) the fast path reads.
# Raise the floors when coverage grows; never lower them.
COVER_FLOOR_GUARD     ?= 92.0
COVER_FLOOR_IPT       ?= 92.0
COVER_FLOOR_KERNELSIM ?= 77.0
COVER_FLOOR_HARNESS   ?= 75.0
COVER_FLOOR_ITC       ?= 94.0
# The analysis tree's framework is exercised mostly by the analyzer
# subpackages' fixture tests, so its floor is measured as the union
# profile across the whole ./internal/analysis/... tree.
COVER_FLOOR_ANALYSIS  ?= 85.0

cover-ratchet:
	@check() { \
	  pct=$$($(GO) test -cover $$1 -count=1 | awk '{for(i=1;i<=NF;i++) if ($$i ~ /%$$/) v=$$i} END {gsub(/%/,"",v); print v}'); \
	  echo "$$1 coverage: $$pct% (floor $$2%)"; \
	  awk -v p="$$pct" -v f="$$2" 'BEGIN {exit !(p+0 >= f+0)}' || { echo "coverage ratchet failed for $$1"; exit 1; }; \
	}; \
	checkunion() { \
	  prof=$$(mktemp); \
	  $(GO) test -count=1 -coverprofile=$$prof -coverpkg=$$1 $$1 >/dev/null && \
	  pct=$$($(GO) tool cover -func=$$prof | awk 'END {gsub(/%/,"",$$NF); print $$NF}'); \
	  rm -f $$prof; \
	  echo "$$1 coverage: $$pct% (floor $$2%)"; \
	  awk -v p="$$pct" -v f="$$2" 'BEGIN {exit !(p+0 >= f+0)}' || { echo "coverage ratchet failed for $$1"; exit 1; }; \
	}; \
	check ./internal/guard/ $(COVER_FLOOR_GUARD) && \
	check ./internal/trace/ipt/ $(COVER_FLOOR_IPT) && \
	check ./internal/kernelsim/ $(COVER_FLOOR_KERNELSIM) && \
	check ./internal/harness/ $(COVER_FLOOR_HARNESS) && \
	check ./internal/itc/ $(COVER_FLOOR_ITC) && \
	checkunion ./internal/analysis/... $(COVER_FLOOR_ANALYSIS)

# vet is the pre-commit gate (and part of `make all`): the stock go vet
# suite plus fgvet, the repo's six analyzers (oracle import isolation,
# fail-closed verdict handling, hot-path allocation, lock discipline and
# ordering, atomic fields, goroutine lifecycle). fgvet exits non-zero on
# any unsuppressed finding.
# The end-to-end benchmark is its own module (./... stops at its
# boundary), so it is vetted separately: an API break it depends on
# fails here instead of only when the benchmark runs.
vet: fgvet
	$(GO) vet ./...
	cd perfbench && $(GO) vet .

fgvet:
	$(GO) run ./cmd/fgvet -quiet ./...

# staticcheck runs honnef.co's suite when the binary is available (CI
# pins it; locally install the same version or skip). `go run` would
# need network access to fetch the module, so this requires a
# preinstalled binary on PATH.
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 || { \
	  echo "staticcheck not installed; CI runs $(STATICCHECK_VERSION). Install with:"; \
	  echo "  go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
	  exit 1; \
	}
	staticcheck ./...

fmt:
	gofmt -l .

cover:
	$(GO) test -cover ./...
