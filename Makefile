# Convenience targets for the pbio-go reproduction.

GO ?= go

.PHONY: all build vet vet-std vet-pbio vet-report lint pbiovet test test-race chaos fuzz bench bench-smoke bench-compare bench-all figures examples clean

all: build vet test

build:
	$(GO) build ./...

# vet runs the standard Go vet plus pbiovet, the repo's own analyzer
# suite: the shape checks (endiancheck, senterr, tracecheck) and the
# flow-aware checks (lockcheck, atomiccheck, alloccheck), each proven
# against seeded bugs by cmd/pbiovet's TestMutations.  Any diagnostic
# fails the target, and therefore `make all` and CI.  `pbiovet -list`
# documents the suite; `bin/pbiovet -run=name ./...` runs one analyzer.
vet: vet-std vet-pbio

vet-std:
	$(GO) vet ./...

vet-pbio: pbiovet
	$(GO) vet -vettool=bin/pbiovet ./...

# vet-report writes every pbiovet diagnostic to vet_report.txt as a
# stable LC_ALL=C-sorted file:line:col list — the CI artifact.  The
# target fails when any diagnostic exists, so a new finding breaks the
# build and the artifact shows exactly what appeared.
vet-report: pbiovet
	@$(GO) vet -vettool=bin/pbiovet ./... 2>&1 | grep -v '^#' | LC_ALL=C sort > vet_report.txt; true
	@if [ -s vet_report.txt ]; then \
		echo "pbiovet diagnostics (vet_report.txt):"; cat vet_report.txt; exit 1; \
	else \
		echo "pbiovet: no diagnostics" | tee vet_report.txt; \
	fi

lint: vet

pbiovet:
	@mkdir -p bin
	$(GO) build -o bin/pbiovet ./cmd/pbiovet

# The benchmark is a nested module (benchmark/go.mod) that root-level
# `go build ./...` and `go test ./...` never compile; vetting and testing
# it here is what makes an API break under it visible before the
# benchmark pipeline runs.
test: chaos
	$(GO) test ./...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

test-race:
	$(GO) test -race ./...

# Fault-injection soak: N producers x M consumers through the relay over
# links that fragment, starve, corrupt, and drop (internal/faultnet).
# Short matrix by default; CHAOS_LONG=1 runs the full-length soak, and
# CHAOS_SEED=<seed> replays a failure printed by a previous run.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|FaultyLink|BroadcastDropClose' \
		./internal/relay/ ./internal/transport/

# Short runs of the wire-format fuzz targets.
fuzz:
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime 20s ./internal/transport/
	$(GO) test -run xxx -fuzz FuzzReadMessage -fuzztime 20s ./internal/transport/
	$(GO) test -run xxx -fuzz FuzzDecodeMeta -fuzztime 20s ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzSubscriptionFrame -fuzztime 20s ./internal/transport/
	$(GO) test -run xxx -fuzz FuzzReadJournal -fuzztime 20s ./internal/flightrec/
	$(GO) test -run xxx -fuzz FuzzConvertBatch -fuzztime 20s ./internal/dcg/

# bench runs the perf-trajectory benchmarks (pbio public API, DCG
# engine, wire formats and field lookup) and stores them as a
# machine-readable artifact.  BENCHTIME controls depth; bench-smoke is the CI-speed variant (one iteration per
# benchmark: verifies the benchmarks run, produces no timing signal, and
# writes bench_current.json so it cannot overwrite the BENCHBASE file).
BENCHTIME ?= 1s
BENCHOUT  ?= BENCH_pr16.json

bench:
	$(GO) test -bench=. -benchtime=$(BENCHTIME) -benchmem -run xxx ./pbio/ ./internal/dcg/ ./internal/wire/ \
		| $(GO) run ./cmd/benchjson > $(BENCHOUT)
	@echo "wrote $(BENCHOUT)"

bench-smoke:
	$(MAKE) bench BENCHTIME=1x BENCHOUT=bench_current.json

# bench-compare re-runs the benchmarks and diffs them against the
# checked-in baseline (BENCHBASE): allocs/op must not grow at all, B/op
# and ns/op within thresholds.  A regression exits nonzero and fails CI.
# COMPAREBENCHTIME must be enough iterations to amortize one-time setup
# (1x smoke artifacts make allocs/op meaningless); COMPAREFLAGS tunes
# the thresholds — CI passes -ns-threshold=-1 because the baseline's
# wall-clock numbers come from different hardware.
BENCHBASE        ?= BENCH_pr16.json
COMPAREBENCHTIME ?= 5000x
COMPAREFLAGS     ?=

bench-compare:
	$(MAKE) bench BENCHOUT=bench_current.json BENCHTIME=$(COMPAREBENCHTIME)
	$(GO) run ./cmd/benchjson -compare $(COMPAREFLAGS) $(BENCHBASE) bench_current.json

# Full benchmark sweep over every package (human-readable).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table/figure of the paper plus the extension tables.
figures:
	$(GO) run ./cmd/wireperf
	$(GO) run ./cmd/wireperf -gencost
	$(GO) run ./cmd/wireperf -nested
	$(GO) run ./cmd/wireperf -homo
	$(GO) run ./cmd/wireperf -wire
	$(GO) run ./cmd/wireperf -xmlrt
	$(GO) run ./cmd/wireperf -pairs
	$(GO) run ./cmd/wireperf -live

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/visualization
	$(GO) run ./examples/evolution
	$(GO) run ./examples/heterogeneous
	$(GO) run ./examples/brokered

clean:
	$(GO) clean ./...
	rm -f vet_report.txt mutation_report.txt
	rm -rf bin
