# Build/verification tiers for the tree-access reproduction.
#
#   make check          vet + race tests + benchmark smoke + server smoke (CI tier);
#                       asserts the replay/controller/forensics bench claims
#                       without touching the checked-in BENCH_pr*.json
#   make test           plain unit tests (tier-1)
#   make bench          full benchmark sweep with allocation counts
#   make bench-snapshot rewrite BENCH_pr1.json from the hot-path kernels
#   make server-smoke   boot pmsd, scripted request mix incl. backpressure
#   make bench-serving  rewrite BENCH_pr2.json from a pmsd -loadgen run
#   make fuzz-smoke     run every Fuzz* target briefly (FUZZTIME=10s)
#   make bench-chaos    rewrite BENCH_pr3.json from a pmsd -chaos-bench run
#   make bench-obs      rewrite BENCH_pr4.json from a pmsd -trace-bench run
#   make bench-metrics  rewrite BENCH_pr5.json from a pmsd -metrics-bench run
#   make bench-retrieval rewrite BENCH_pr6.json from a pmsd -retrieval-bench run
#   make bench-store    rewrite BENCH_pr7.json from a pmsd -store-bench run
#   make bench-replay   rewrite BENCH_pr8.json from a pmsd -replay-bench run
#   make bench-controller rewrite BENCH_pr9.json from a pmsd -controller-bench run
#   make bench-forensics rewrite BENCH_pr10.json from a pmsd -forensics-bench run

GO ?= go

# Where the bench-* targets write their BENCH_pr*.json snapshots. make
# check points it at a temporary directory.
BENCH_DIR ?= $(CURDIR)

.PHONY: check check-benches vet test race bench-smoke bench bench-snapshot server-smoke bench-serving fuzz-smoke bench-chaos bench-obs bench-metrics bench-retrieval bench-store bench-replay bench-controller bench-forensics

check: vet race bench-smoke server-smoke fuzz-smoke check-benches

# The three bench claims, asserted through pmsd's exit code, with the
# snapshots written to a throwaway directory so the history files stay
# as checked in.
check-benches:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	    $(MAKE) --no-print-directory BENCH_DIR="$$dir" bench-replay bench-controller bench-forensics

vet:
	$(GO) vet ./...

# Tier-1 runs vet too: it is cheap and catches printf/struct-tag slips
# that plain `go test` lets through.
test: vet
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every benchmark: catches benchmarks that no longer
# compile or fail their internal assertions, without the full measurement.
bench-smoke:
	$(GO) test -run=- -bench=. -benchtime=1x ./...

bench:
	$(GO) test -bench=. -benchmem ./...

bench-snapshot:
	BENCH_SNAPSHOT=$(BENCH_DIR)/BENCH_pr1.json $(GO) test -run TestBenchSnapshot .

# Boots pmsd on a random port and runs the scripted serving smoke:
# request mix, batch coalescing visible in /metrics (fewer flushed
# batches than lookups served in a burst against a busy worker), 429
# backpressure under saturation, graceful SIGTERM drain.
server-smoke:
	./scripts/server_smoke.sh

# End-to-end serving throughput snapshot: the same workload with
# coalescing on vs batch size 1, written to BENCH_pr2.json.
bench-serving:
	$(GO) run ./cmd/pmsd -loadgen -requests 20000 -clients 32 -dist zipf \
	    -bench-out $(BENCH_DIR)/BENCH_pr2.json

# Short fuzzing pass over every Fuzz* target in the module; crashers
# fail the build. Budget per target via FUZZTIME (default 10s).
fuzz-smoke:
	FUZZTIME=$(FUZZTIME) ./scripts/fuzz_smoke.sh

# Tail-latency under injected faults: the resilient client driving a
# chaotic in-process server, hedging off vs on under the identical
# seeded fault schedule, written to BENCH_pr3.json.
bench-chaos:
	$(GO) run ./cmd/pmsd -chaos-bench -requests 8000 -clients 16 \
	    -chaos-seed 42 -chaos-latency 0.1 -levels 16 \
	    -bench-out $(BENCH_DIR)/BENCH_pr3.json

# Request-tracing overhead snapshot: the identical loadgen workload with
# tracing off, sampled at 0.01, and at full sampling, written to
# BENCH_pr4.json. The claim under test: <3% p50 cost at full sampling.
bench-obs:
	$(GO) run ./cmd/pmsd -trace-bench -requests 12000 -clients 32 -dist zipf \
	    -bench-out $(BENCH_DIR)/BENCH_pr4.json

# Domain-accounting overhead snapshot: the identical template-cost
# workload with per-module accounting off vs on, written to
# BENCH_pr5.json. The claim under test: <3% p50 cost with accounting on,
# and zero theorem-bound violations across the accounted run.
bench-metrics:
	$(GO) run ./cmd/pmsd -metrics-bench -requests 12000 -clients 32 -dist zipf \
	    -bench-out $(BENCH_DIR)/BENCH_pr5.json

# Batch-kernel throughput snapshot: every mapping's ColorBatch kernel
# against the per-node interface path at batch 64/256/1024, plus an
# end-to-end serving A/B with the kernel disabled. The claim under test:
# >=5x kernel speedup at batch >=64 on at least two mapping algorithms.
bench-retrieval:
	$(GO) run ./cmd/pmsd -retrieval-bench -levels 20 \
	    -bench-out $(BENCH_DIR)/BENCH_pr6.json

# Disk-tier snapshot: cold materialization vs warm mmap acquire per spec
# (min-of-reps, headlined by the largest COLOR retriever table) plus the
# tier hit ratio under a Zipf spec mix through a tiny memory tier. The
# claim under test: >=5x faster warm acquire for the large-H spec.
bench-store:
	$(GO) run ./cmd/pmsd -store-bench -bench-out $(BENCH_DIR)/BENCH_pr7.json

# Record/replay determinism snapshot: a Zipf-skewed multi-tenant mixed
# workload (color / template-cost / range / heap endpoints) is recorded
# through the trace middleware, then replayed twice against fresh
# deterministic servers. The claims under test: bit-identical response
# digests across the two replays, and zero theorem-bound violations.
bench-replay:
	$(GO) run ./cmd/pmsd -replay-bench -requests 4000 -clients 16 -tenants 8 \
	    -levels 14 -bench-out $(BENCH_DIR)/BENCH_pr8.json

# Adaptive-controller snapshot: the S-heavy → P-heavy phase-shift
# workload against the controller and against each static mapping it
# arbitrates between. The claims under test: the controller migrates to
# COLOR during the S phase, its observed conflicts undercut every static
# choice at comparable p99, and the bound monitor stays at zero.
bench-controller:
	$(GO) run ./cmd/pmsd -controller-bench -requests 2400 -clients 8 \
	    -levels 12 -bench-out $(BENCH_DIR)/BENCH_pr9.json

# Flight-recorder overhead snapshot: the identical mixed workload with
# the recorder off vs on (rings + watchdog ticking), written to
# BENCH_pr10.json. Clients match the worker count so the comparison runs
# below saturation: at saturation p50 measures queue depth and amplifies
# scheduler noise past the effect being priced. The claims under test:
# <3% p50 serving cost with the recorder on, and zero theorem-bound
# violations across both runs.
bench-forensics:
	$(GO) run ./cmd/pmsd -forensics-bench -requests 12000 -clients 4 -dist zipf \
	    -bench-out $(BENCH_DIR)/BENCH_pr10.json
