# Build/verification tiers for the tree-access reproduction.
#
#   make check          gofmt + vet (root and bench modules) + race tests +
#                       benchmark smoke + server smoke + fuzz smoke (CI
#                       tier); the record/replay, flight recorder and
#                       controller claims are go tests
#   make test           plain unit tests (tier-1)
#   make bench          full benchmark sweep with allocation counts
#   make bench-snapshot rewrite BENCH_pr1.json from the hot-path kernels
#   make server-smoke   boot pmsd, scripted request mix incl. backpressure
#   make fuzz-smoke     run every Fuzz* target briefly (FUZZTIME=10s)
#
# pmsd's end-to-end benchmark is pmsbench: bash bench/run.sh.

GO ?= go

# Where bench-snapshot writes BENCH_pr1.json.
BENCH_DIR ?= $(CURDIR)

.PHONY: check vet test race bench-smoke bench bench-snapshot server-smoke fuzz-smoke

check: vet race bench-smoke server-smoke fuzz-smoke

# gofmt covers every tracked Go file, bench/ included; bench/ is its own
# module, so the root `go vet ./...` skips it and a change to an internal
# API it uses would otherwise break pmsbench unnoticed.
vet:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) -C bench vet ./...

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

# Short fuzzing pass over every Fuzz* target in the module; crashers
# fail the build. Budget per target via FUZZTIME (default 10s).
fuzz-smoke:
	FUZZTIME=$(FUZZTIME) ./scripts/fuzz_smoke.sh
