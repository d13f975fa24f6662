# Tier-1 verification for the southwell repo. `make verify` is the gate:
# build + vet + full test suite + race-mode runtime/method tests + a chaos
# smoke run of both binaries.

GO ?= go

.PHONY: build test vet lint lint-fix lint-cache-check race chaos-smoke partition-pin bench-kernels bench-ldl bench-obs bench-scale bench-active bench-e2e verify bench clean

build:
	$(GO) build ./...

# The suite runs at one, two, four and eight scheduler threads: bit-identity
# between the sequential, pool and neighborhood engines is the repo's
# central promise, and it is only checked where the pool really runs
# concurrently (the retained-window aliasing bug passed at GOMAXPROCS=1).
test:
	GOMAXPROCS=1 $(GO) test ./...
	GOMAXPROCS=2 $(GO) test ./...
	GOMAXPROCS=4 $(GO) test ./...
	GOMAXPROCS=8 $(GO) test ./...

vet:
	$(GO) vet ./...

# Static checks beyond vet that need no external tools: formatting drift
# fails the build (gofmt prints nothing when clean), then the project's own
# determinism/fault-safety analyzers (cmd/dslint) run over the whole module
# through the parallel content-hash-cached driver (.dslintcache): packages
# are analyzed concurrently across the import DAG and a warm run re-analyzes
# only what changed, so repeated `make lint` is near-instant. dslint prints
# one file:line:col per finding and exits non-zero on any.
lint: vet
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) run ./cmd/dslint ./...

# Apply dslint's machine-applicable fixes (today: deleting stale
# //dslint:ignore directives), then report whatever findings remain.
lint-fix:
	$(GO) run ./cmd/dslint -fix ./...

# Assert the warm-cache contract CI relies on: a second run over an
# unchanged tree re-analyzes zero packages and prints byte-identical
# findings. Run after `make lint` (which populates .dslintcache).
lint-cache-check:
	@$(GO) run ./cmd/dslint -stats ./... >/tmp/dslint.cold 2>/tmp/dslint.cold.err || true
	@$(GO) run ./cmd/dslint -stats ./... >/tmp/dslint.warm 2>/tmp/dslint.warm.err || true
	@grep -q ', 0 analyzed,' /tmp/dslint.warm.err || { \
		echo "warm dslint run re-analyzed packages:"; cat /tmp/dslint.warm.err; exit 1; }
	@cmp -s /tmp/dslint.cold /tmp/dslint.warm || { \
		echo "warm dslint output differs from cold run"; exit 1; }
	@echo "dslint warm cache OK: 0 packages re-analyzed, output byte-identical"

# The engine-equivalence, chaos-determinism, pool, and parallel-kernel
# tests under the race detector: together they prove the worker pools are
# race-free and bit-identical to their sequential forms, faults included
# (DESIGN.md §6, §9). The partitioner is there for its per-call workspace:
# concurrent Partition calls (bench set-ups under -par) must share nothing.
race:
	$(GO) test -race ./internal/rma/... ./internal/dmem/... ./internal/parallel/... ./internal/sparse/... ./internal/spdirect/... ./internal/obs/... ./internal/partition/...

# End-to-end fault-injection smoke: both binaries on a small problem with
# delay faults. Exercises flag validation, the chaos table, and the
# watchdog verdict path outside the unit tests.
chaos-smoke: build
	$(GO) run ./cmd/dsouthwell -grid 40 -n 16 -sweep_max 15 -chaos 0.3 >/dev/null
	$(GO) run ./cmd/benchtables -quick -ranks 32 -steps 40 -par 4 chaos >/dev/null

# Partitioner pins, by name so a failure is labelled: the golden part-vector
# hashes (every results/*.txt table sits on these partitions) and the
# malloc/byte ceiling of one Partition call.
partition-pin:
	$(GO) test -run 'TestPartitionGolden' ./internal/partition/
	$(GO) test -run 'TestPartitionAllocCeiling' ./internal/partition/

# Kernel smoke: the allocs/op regression gate against BENCH_kernels.json
# plus one iteration of each kernel benchmark, so a steady-state allocation
# or an outright kernel breakage fails verify without a long bench run.
bench-kernels:
	$(GO) test -run 'TestKernelAllocGate' ./internal/sparse/
	$(GO) test -bench 'BenchmarkKernels' -benchtime 1x -run '^$$' ./internal/sparse/ >/dev/null

# LDL' smoke: the allocs/op regression gate against BENCH_ldl.json (Solve
# and Refactor must stay allocation-free) plus one iteration of each
# sparse-pipeline benchmark. The dense baseline (BenchmarkDenseLU) is
# deliberately excluded -- its O(n^3) factor would add minutes to verify.
bench-ldl:
	$(GO) test -run 'TestLDLAllocGate' ./internal/spdirect/
	$(GO) test -bench 'BenchmarkLDL' -benchtime 1x -run '^$$' ./internal/spdirect/ >/dev/null

# Observability smoke: the allocs/op regression gate against BENCH_obs.json
# (the disabled emit path, the enabled ring write, and a fully traced phase
# must all stay allocation-free) plus one iteration of the obs benchmarks.
bench-obs:
	$(GO) test -run 'TestObsAllocGate' ./internal/obs/
	$(GO) test -bench 'BenchmarkObs' -benchtime 1x -run '^$$' ./internal/obs/ >/dev/null

# Scheduler smoke: the allocs/op regression gate against BENCH_scale.json
# (a neighborhood-scheduled phase group must stay allocation-free in steady
# state — the memory discipline that makes the 4096/8192-rank rungs of the
# scaling study CI-feasible) plus one iteration of the scheduler benchmark.
# The full host-time ladder lives in `benchtables scaling` (results/
# scaling.txt), not in verify.
bench-scale:
	$(GO) test -run 'TestScaleAllocGate' ./internal/rma/
	$(GO) test -bench 'BenchmarkScalePhases' -benchtime 1x -run '^$$' ./internal/rma/ >/dev/null

# Active-set smoke: the allocs/op regression gate against BENCH_active.json
# (one RunPhaseActive over a warmed world must stay allocation-free in
# steady state on both engines — the discipline that lets paper-scale DS
# runs step in O(active work)) plus one iteration of the active benchmark.
bench-active:
	$(GO) test -run 'TestActiveAllocGate' ./internal/rma/
	$(GO) test -bench 'BenchmarkActivePhases' -benchtime 1x -run '^$$' ./internal/rma/ >/dev/null

# End-to-end benchmark (benchmarks/e2e, contract in BENCHMARK.json): four
# workloads, an untraced end-to-end pass and a traced per-layer pass, output
# under benchmarks/e2e/out/. Takes about a minute, so it is not part of
# verify. Compare two output directories with
#   go run ./benchmarks/e2e -compare A B
bench-e2e:
	$(GO) run ./benchmarks/e2e -seed 1

verify: build lint test race chaos-smoke partition-pin bench-kernels bench-ldl bench-obs bench-scale bench-active

# Micro-benchmarks for the phase engine, message path, numerical kernels,
# and sparse local solver (see BENCH_rma.json, BENCH_kernels.json, and
# BENCH_ldl.json for recorded baselines).
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/rma/ ./internal/dmem/ ./internal/bench/ ./internal/sparse/ ./internal/spdirect/ ./internal/obs/

clean:
	$(GO) clean ./...
