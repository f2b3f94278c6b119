GO ?= go

# pipefail so a failing command on the left of a pipe (cover's
# `go tool cover | awk`) fails its target.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: check build vet fmt staticcheck test race serve-soak conformance conformance-update cover fuzz-smoke bench bench-smoke

check: build vet fmt staticcheck test conformance

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# staticcheck runs when the binary is available (CI installs it; local
# environments without it skip with a note rather than failing check).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

test:
	$(GO) test ./...

# race runs the full suite under the race detector — the planner layer
# is exercised by many goroutines through shared caches and pools —
# and then the optimizer's randomized cross-checks over their full seed
# sweep (tier-1 runs one seed per point; see -exhaustive in
# internal/optimizer/enumerate_test.go): linearized vs exact tier, naive
# vs DPccp enumerator, DFSM vs Simmen order framework, whose merge
# joins read sort states from the per-pair table and sort at each use
# respectively, and the DFSM DP of both tiers as it runs (non-leading
# inners and non-live outers skipped, one sort state per column,
# candidates counted per pair by arithmetic) against the same DP
# visiting, pricing and counting every candidate one by one. The sweep
# adds seeds, not goroutines, and runs without the detector: its shadow
# memory on the 26M-plan grid-12 exact DP is 16 GB.
race:
	$(GO) test -race ./...
	$(GO) test ./internal/optimizer/ -run 'TestLinearizedCrossCheck|TestEnumeratorsAgreeOnOptimalCost|TestModesAgreeOnOptimalCost|TestInnerPruningMatchesFullDP' -args -exhaustive

# serve-soak is the lifecycle endurance run: a minute of mixed
# plan/execute/stream/disconnect traffic under the race detector, over
# an on-demand registry being evicted underneath the queries, ending
# with a leak audit (operators, budget bytes, pins, goroutines). The
# tier-1 suite runs the same test at 1.5s; this target is the long soak
# CI runs after `make race`.
serve-soak:
	$(GO) test -race ./internal/server/ -run 'TestServeSoak' -count=1 -timeout 5m -args -soak=60s

# conformance runs the declarative golden corpus (internal/conformance)
# under the race detector: every fixture across the full strategy ×
# planning-idiom × DOP × operator-toggle matrix, asserting identical
# result checksums in every cell plus the recorded plan trees and
# order verdicts. See docs/testing.md.
conformance:
	$(GO) test -race ./internal/conformance/

# conformance-update re-records every fixture's expectation block
# (checksums, row counts, order verdicts, golden plan trees) after an
# intentional planner or executor change. Review the diff before
# committing — the corpus is the executable spec.
conformance-update:
	$(GO) test ./internal/conformance/ -run TestCorpus -update

# COVER_FLOOR is the pinned combined statement coverage of the executor
# and its conformance corpus; cover fails when new executor code lands
# without conformance or unit coverage.
COVER_FLOOR := 92.7
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./internal/exec/...,./internal/conformance/... \
		./internal/exec/ ./internal/conformance/
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "combined exec+conformance coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

# fuzz-smoke runs the six fuzz targets briefly on top of their seeds.
# The SQL round-trip fuzzer (checked-in corpus under
# internal/sqlparse/testdata/fuzz): parse → bind → render → re-bind must
# never panic and must keep fingerprints stable. The response writer's:
# every served body must stay byte for byte what encoding/json prints.
# The rows frame writer's: frames of fuzzed repeats of the row above,
# ragged widths, nil rows and edge integers must stay encoding/json's
# bytes too. The piece encoder's: the same rows cut into one to four
# pieces, each row claiming the pieces it repeats from the row above as
# a join spine does, must be the rows frame writer's bytes. The sort
# kernel's: sortRows must put any rows, on dense,
# sparse and overflowing key spans, into the permutation a stable sort
# gives. The request decoder's: any body, padded past the 1 MiB limit or
# not, must decode to what encoding/json decodes it to, or be refused
# with the status encoding/json's refusal got. Go minimizes each new
# interesting input for up to 60 s by default, which ate each target's
# ten seconds (the first four sat at 0 execs/sec a few seconds in), so
# every target minimizes for 100 runs and spends the rest fuzzing. CI runs it so the fuzz targets cannot
# rot.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSQLRoundTrip$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/sqlparse/
	$(GO) test -run '^$$' -fuzz '^FuzzWriterMatchesEncodingJSON$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzRowsFrameMatchesEncodingJSON$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzPiecesFrameMatchesRowsFrame$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzSortRows$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/exec/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequestMatchesEncodingJSON$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/server/

# bench is the repo's one benchmark: the four served workloads
# BENCHMARK.json declares, each a fresh process of the benchmark/
# driver (quiet-block end-to-end metrics; --trace 1 adds the per-layer
# table). BENCHMARK.json carries the bounds a change is gated on; see
# benchmark/README.md.
BENCH_WORKLOADS := plan_novel topk_hot q8_repeat stream_orderflow
bench:
	@for w in $(BENCH_WORKLOADS); do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 20 --trace 0; done

# bench-smoke compiles and runs every Benchmark* function once (no
# timing) so the paper-table and execution microbenchmarks cannot rot;
# CI runs it on every push.
bench-smoke:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x ./...
