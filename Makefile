# Development targets. The repo is plain `go build ./...` / `go test
# ./...`; make exists for the composite perf workflows.

# Pipelines must fail when `go test -bench` fails, not report the JSON
# emitter's status — otherwise a panicking benchmark would silently
# write a partial BENCH_simcore.json and keep CI green.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

SIMCORE_BENCHES = BenchmarkTable1$$|BenchmarkSimulator$$|BenchmarkStallHeavy$$|BenchmarkStallHeavyRef$$|BenchmarkMergeSelect$$|BenchmarkMergeSelectRef$$|BenchmarkCacheAccess$$|BenchmarkCompile$$|BenchmarkCircuitBuild$$

.PHONY: test lint check-allocs golden bench-simcore bench-simcore-ci

test:
	go build ./... && go test ./...

# lint is the *static* half of the invariant enforcement story:
#   - go vet: the stock correctness checks
#   - vliwvet: this repo's own analyzers (cmd/vliwvet) — determinism of
#     the simulation packages (detpure, detmap), the zero-alloc contract
#     of //vliw:hotpath functions (hotalloc), and wire/telemetry hygiene
#     (wiretag)
#   - staticcheck: when installed locally (CI always runs it)
# The *dynamic* half is `make check-allocs`: vliwvet proves "no
# allocating construct appears in an annotated function" at the syntax
# level; AllocsPerRun measures what the compiled binary actually does,
# catching anything the analyzer cannot see (escape-analysis changes,
# allocations inside callees). Keep both — each catches regressions the
# other misses, and the static one runs before a single test compiles.
lint:
	go vet ./...
	go run ./cmd/vliwvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it)"; \
	fi

# check-allocs is the allocation guard on the (instrumented) hot path:
# the AllocsPerRun tests pinning the simulator's zero-allocs/cycle
# invariant, the compiled selectors' zero-alloc selection and the
# telemetry hot-path increments. bench-simcore depends on it so the
# committed perf record can never be refreshed from a build whose
# cycle loop has started allocating.
check-allocs:
	go test -run 'ZeroAllocs$$|AllocFree$$' ./internal/sim ./internal/merge ./internal/telemetry

# golden blesses every golden file in the repo: the conformance corpora
# (testdata/golden, TestGoldenCorpora), the wire fixtures
# (internal/api/testdata, TestGolden) and the commands' outputs
# (cmd/<name>/testdata, TestGolden). Run it after an intentional
# behaviour or format change and review the diff before committing:
# every changed metric is a deliberate claim that the new numbers are
# right. It names the packages whose tests define -update rather than
# ./..., because a test binary without an -update flag rejects the flag.
golden:
	go test . ./internal/api ./cmd/paperfigs ./cmd/vliwsim ./cmd/vliwasm ./cmd/vliwdiff \
		-run '^TestGolden' -update -count=1

# bench-simcore runs the repository's micro-benchmarks (bench_test.go
# defines exactly SIMCORE_BENCHES) at measurement quality and rewrites
# BENCH_simcore.json, the committed machine-readable perf record (ns/op,
# allocs/op, cycles/s; see DESIGN.md). Each benchmark runs five times
# and benchjson records the median with the min/max spread, so a
# recorded number is never a single sample. Run it on a
# quiet machine when a PR touches the hot path, and commit the result so
# the perf trajectory stays diffable.
bench-simcore: check-allocs
	go test -run '^$$' -bench '$(SIMCORE_BENCHES)' -benchmem -benchtime 2s -count 5 . \
		| tee /dev/stderr | go run ./cmd/benchjson > BENCH_simcore.json

# bench-simcore-ci is the cheap CI variant: one iteration per benchmark,
# just enough to prove the harness and the JSON emitter stay healthy.
# CI machines are too noisy for the committed numbers, so the output
# goes to a scratch file, not BENCH_simcore.json.
bench-simcore-ci:
	go test -run '^$$' -bench '$(SIMCORE_BENCHES)' -benchmem -benchtime 1x -count 1 . \
		| go run ./cmd/benchjson > /tmp/bench_simcore_ci.json
	cat /tmp/bench_simcore_ci.json
