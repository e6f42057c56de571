# Convenience targets for the pbio-go reproduction.

GO ?= go

.PHONY: all build vet vet-std vet-pbio vet-report lint pbiovet test test-race chaos fuzz bench figures examples clean

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

# The two measurement surfaces.  bench is the standing benchmark: every
# workload end to end plus the per-layer ledger (benchmark/README.md);
# micro-benchmark allocation counts are pinned exactly in tier-1
# (pbio's TestAllocs*, dcg's TestConvertBatchAllocs, wire's
# TestCursorAllocs).  figures regenerates Figures 1-7, the paper-text tables and the
# headline claims, and fails when one of the figures' orderings does not
# hold.
bench:
	bash benchmark/run.sh

figures:
	$(GO) run ./cmd/wireperf

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
