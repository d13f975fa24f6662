# Tier-1 verification for the southwell repo. `make verify` is the gate:
# build + vet + full test suite + race-mode runtime/method tests + a chaos
# smoke run of both binaries + 30 s of fuzzing + the examples run + results/
# regenerated and compared + a brief run of the end-to-end benchmark's four
# workloads.

GO ?= go

.PHONY: build test vet lint race chaos-smoke partition-pin alloc-gates fuzz examples results-check bench-e2e bench-smoke identity bench-pairs verify bench clean

build:
	$(GO) build ./...

# The suite runs at one, two, four and eight scheduler threads: dmem's
# set-up (NewLayout's passes, the local factorizations) fans out over
# parallel.For, and bit-identity across its widths is the repo's central
# promise. The width tests set For's width to 2, 4 and 7 themselves, but
# goroutines only really run concurrently above one thread (the
# retained-window aliasing bug passed at GOMAXPROCS=1), and concurrent
# solves on one Setup only race above one.
# -count=1 because the test cache does not key on GOMAXPROCS: without it
# the second to fourth line print "(cached)".
test:
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	GOMAXPROCS=2 $(GO) test -count=1 ./...
	GOMAXPROCS=4 $(GO) test -count=1 ./...
	GOMAXPROCS=8 $(GO) test -count=1 ./...

vet:
	$(GO) vet ./...

# Static checks beyond vet that need no external tools: formatting drift
# fails the build (gofmt prints nothing when clean), then the tests of
# internal/lint, by name, over one type-checked load of the module (under a
# second, nearly all of it `go list`): the three determinism rules (no map
# range and no wall clock or global math/rand under internal/, no exact
# float comparison in any non-test file; each finding prints as
# file:line:col), the rules run on planted sources, and the exported-name
# and doc-name checks. They are ordinary tests, so tier-1 runs them too.
LINT_TESTS = TestMapOrder|TestDeterminism|TestFloatCompare|TestMapOrderPlanted|TestDeterminismPlanted|TestFloatComparePlanted|TestExportedNamesHaveReaders|TestDocGoNamesResolve
lint: vet
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) test -count=1 -run '^($(LINT_TESTS))$$' ./internal/lint/

# The runtime, method, parallel.For and set-up tests under the race
# detector. Rank phases run on the calling goroutine, so the rma and dmem
# lines cover concurrent solves on one Setup (TestSetupConcurrentRuns: one
# takes the parked run state, the others build their own), worlds running
# at once (rma's wK rows) and the set-up on parallel.For (NewLayout, the
# local factorizations at widths 1, 2, 4 and 7), For's only callers. The
# third line holds For's own tests (DESIGN.md §6, §9); spdirect's
# Factorize is what factorAll runs in For's blocks. The partitioner is
# there for its per-call workspace: concurrent Partition calls (the
# set-ups of one bench run set) must share nothing. internal/sparse and
# internal/problem start no goroutine, so neither is on the list. The
# runtime and the methods run at two and at four scheduler threads
# explicitly, whatever the host has: the retained-window aliasing bug only
# showed above one thread. The last line is the
# experiment driver's run sets on parallel.For (blocks meeting in the memo,
# runs sharing one setup, tables and trace exports at widths 1 and 4) — by
# name, because the whole package under the race detector takes about a
# minute.
race:
	GOMAXPROCS=2 $(GO) test -race -count=1 ./internal/rma/... ./internal/dmem/...
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/rma/... ./internal/dmem/...
	$(GO) test -race ./internal/parallel/... ./internal/spdirect/... ./internal/obs/... ./internal/partition/...
	$(GO) test -race -count=1 -run 'Memo|RunSet|ParDriver|TraceExportDriver|SetupCache|SetupShared' ./internal/bench/

# End-to-end fault-injection smoke: both binaries on a small problem with
# delay faults. Exercises flag validation, the chaos table, and the
# watchdog verdict path outside the unit tests.
chaos-smoke: build
	$(GO) run ./cmd/dsouthwell -grid 40 -n 16 -sweep_max 15 -chaos 0.3 >/dev/null
	$(GO) run ./cmd/benchtables -quick -ranks 32 -steps 40 chaos >/dev/null

# Partitioner pin, by name so a failure is labelled: the golden part-vector
# hashes (every results/*.txt table sits on these partitions), the oracles
# that hold refine, induce and the recursion to the implementations the
# hashes were first taken on (kept verbatim in reference_test.go), the
# coarsen-once front end's bypass (recursive bisection byte for byte
# wherever it keeps no coarse level), its quality against recursive
# bisection (edge cut and imbalance over the suite at P = 256 and the
# benchmark shapes) and the k-way refinement's invariants. The malloc/byte
# ceiling of one Partition call runs under alloc-gates.
partition-pin:
	$(GO) test -run 'TestPartitionGolden|TestRefineMatchesReference|TestRefineSkipsNaNGain|TestInduceMatchesReference|TestPartitionMatchesReference|TestMultilevelBypassIsBisection|TestMultilevelQuality|TestKWayRefineInvariants' ./internal/partition/

# Allocation gates: every promise of the form "the steady-state path
# allocates nothing" is a plain Go test asserting testing.AllocsPerRun == 0
# (kernels, LDL' SolveWith, obs off/on/emit, phases dense, active,
# traced and under a delay plan, the dmem relax sweep, World.Reset) plus the malloc/byte ceilings of the
# partitioner, of one LDL' Factorize and of a first and a repeat dmem
# solve; DESIGN.md §8 maps each hot-path root to its gate. Then one iteration of each
# micro-benchmark those gates share set-up with, and of the two set-up
# benchmarks (BenchmarkPartition, BenchmarkNewLayout: the e2e shapes), so an
# outright breakage fails verify without a long bench run. BenchmarkDenseLU
# is deliberately not matched -- its O(n^3) factor would add minutes. The
# set-up's retained-heap ceiling also runs alone at one scheduler thread,
# three times: there a width-2 region's second goroutine starts only after
# the caller has run every block, the case in which a finished region's
# closure once stayed reachable and inflated the reading.
alloc-gates:
	$(GO) test -run 'AllocGate|AllocCeiling' ./internal/...
	GOMAXPROCS=1 $(GO) test -count=3 -run '^TestSetupRetainedAllocCeiling$$' ./internal/dmem
	$(GO) test -run '^$$' -benchtime 1x -bench 'BenchmarkKernels|BenchmarkLDL|BenchmarkObs|BenchmarkRunPhase|BenchmarkActivePhases|BenchmarkLocalSolveCycled|BenchmarkPartition|BenchmarkNewLayout' \
		./internal/sparse/ ./internal/spdirect/ ./internal/obs/ ./internal/rma/ ./internal/dmem/ ./internal/partition/ >/dev/null

# A fuzzing budget of 30 s on top of the committed seeds (testdata/fuzz):
# FuzzFactorize (spdirect's input contract: no panic, malformed input an
# error, a non-SPD pivot ErrNotPositiveDefinite, a diagonally dominant
# block solved to 1e-10, and every factor's solve bit-identical to the
# reference solve) for 10 s, FuzzDelayPlan (every method under any
# delay plan: no panic, finite norms, active == Dense, and b and x0 scaled
# by 2^7 give the same run scaled) for 10 s, FuzzMirrors (the
# structural-symmetry walk refuses exactly the patterns that differ from
# their transpose, names an entry without a mirror, and pairs every entry
# with its transpose) for 5 s, and FuzzLayoutGate (raw, mostly malformed
# matrices: neither sparse.CSR.Relaxable, NewLayout nor core.SolveScalar
# under one scalar method panics, both refuse exactly what the gate refuses,
# with its text, and an accepted scalar solve returns a well-numbered
# trace) for 5 s.
# FuzzReadMatrixMarket stays seed-only (tier-1 runs its
# seeds): a legal header may declare 2^31-1 rows, so a -fuzz run could run
# the host out of memory.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzFactorize$$' -fuzztime 10s ./internal/spdirect/
	$(GO) test -run '^$$' -fuzz '^FuzzDelayPlan$$' -fuzztime 10s ./internal/dmem/
	$(GO) test -run '^$$' -fuzz '^FuzzMirrors$$' -fuzztime 5s ./internal/sparse/
	$(GO) test -run '^$$' -fuzz '^FuzzLayoutGate$$' -fuzztime 5s ./internal/dmem/

# The four examples/ programs are the API's only documentation that
# compiles; `go build ./...` only builds them, so run each (about 3 s in
# all). A program that fails exits non-zero and fails the target.
examples:
	@set -e; for e in deadlock multigrid quickstart scaling; do \
		$(GO) run ./examples/$$e >/dev/null; echo "examples: $$e ok"; \
	done

# Every committed results/*.txt is a function of the code: regenerate all
# thirteen (the twelve of "all" plus scaling) into a temporary directory and
# cmp each against results/. About 35 s. Two processes, because a process
# keeps every setup it builds: "all" peaks near 1 GB resident and scaling's
# 8192-rank setups would add 0.3 GB on top. After a change that is meant to
# move a table, regenerate with `go run ./cmd/benchtables -out results all`
# (and `... scaling`) and commit the difference.
results-check:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; out=$$tmp/results; \
	$(GO) build -o $$tmp/benchtables ./cmd/benchtables; \
	$$tmp/benchtables -out $$out all >/dev/null; \
	$$tmp/benchtables -out $$out scaling >/dev/null; \
	test "$$(ls $$out | wc -l)" -eq "$$(ls results | wc -l)" || { echo "results-check: file lists differ"; ls $$out results; exit 1; }; \
	for f in results/*.txt; do \
		cmp $$f $$out/$${f#results/} || { echo "results-check: $$f is not what the code prints"; exit 1; }; \
	done; \
	echo "results-check: $$(ls results | wc -l) files identical"

# End-to-end benchmark (benchmarks/e2e, contract in BENCHMARK.json): four
# workloads, an untraced end-to-end pass and a traced per-layer pass, output
# under benchmarks/e2e/out/. Takes about a minute, so it is not part of
# verify. Compare two output directories with
#   go run ./benchmarks/e2e -compare A B
bench-e2e:
	$(GO) run ./benchmarks/e2e -seed 1

# The end-to-end benchmark, briefly: all four real workloads, both passes,
# a 0.3 s window each (about 15 s on two cores). `go test ./benchmarks/e2e`
# only runs a 20x20 mini workload, so this is verify's one run of the real
# set-ups and solves. The harness exits non-zero when any operation fails
# (a solve that differs from its method's first run, or a residual the
# oracle rejects); the numbers themselves are not judged here. The traced
# pass's Chrome trace goes to a temporary directory, and its report is
# printed only when the run fails.
bench-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./benchmarks/e2e -workload all -trace both -seconds 0.3 -tracedir "$$tmp" >"$$tmp/report.txt" || \
		{ cat "$$tmp/report.txt"; echo "bench-smoke: FAILED"; exit 1; }; \
	echo "bench-smoke: ok"

# Output identity against another checkout (a refactor's acceptance check):
#   make identity PARENT=/path/to/checkout-of-the-parent-commit
# builds dsouthwell and benchtables from both trees, runs the fixed list of
# CLI lines below in each and `cmp`s the outputs. Every line runs: one that
# differs prints DIFFERS and the first 40 lines of its diff, and the target
# fails at the end if any line differed. The table line runs the
# experiment driver's run sets, spread over GOMAXPROCS goroutines; the
# output is the same at every width. The fig7/fig8/fig9 line
# is the one that reaches Figures 7-9, and the fig2/fig5/fig6 line the one
# that reaches the scalar solvers (internal/solvers, and the multigrid
# smoother built on scalar Distributed Southwell). The -x_zeros line is the
# random-b mode (x0 = 0, random right-hand side). The IDENTITY_SMALL lines
# are a many-small-parts run (ranks of about six rows, single-neighbor
# ranks), the shape the exchange plans are laid out for; with -loc_solver
# direct that line pins the sparse local solver on blocks that small. The
# IDENTITY_WIDE lines are the benchmark's wide4k shape (4096 ranks of about
# four rows, 203 329 ghost slots, each initialized through its owner's
# boundary rows), plain and under a delay plan (42 622 bodies held back,
# each landing with a copy of the floats it named). The IDENTITY_DIRECT
# lines are the benchmark's direct64 shape (64 ranks of about 275 rows),
# whose every sparse factor stores both leading runs and tails of L, under
# DS, PS and BJ: each method's direct relaxation charges the off-diagonal
# count NewSetup recorded. Then come a run's whole trace export (an active
# run's: a rank that sleeps logs nothing, so the export pins which ranks
# stepped as well as every event they logged), the -quick scaling study (it
# reads DIFFERS against a parent whose scaling still printed host
# wall-clock), the whole trace of the same run under a delay plan, which
# pins the fault overlay's trace events, and a run stopped by -target
# before its step budget, which pins the target test. Last is the
# pointload2k workload's shape, Poisson 256x256 on 2048 ranks of 32 rows:
# recursive bisection partitions it, and every relaxation reads a_ii from
# its 5-point row of A, then the many-small-parts shape again under a
# delay plan for 40 steps: the short chaos line above stops at step 5,
# before any starvation re-announce can fire, and this one fires 49 of
# them on 1 024 ranks while some ranks sleep, so it pins the starvation
# clock and its wakeup calendar; and the same 40-step delay run under
# Parallel Southwell, the only line that runs PS under a delay plan outside
# the three-matrix chaos table, so it pins the shared inbox reader's
# stale-estimate guard on a method other than DS. The failure message
# counts the lines that ran. Not part of verify: it needs a second
# checkout.
IDENTITY_TABLES = -quick table2 table3 table4 deadlock ablation chaos
IDENTITY_SOLVE = -mat msdoor -n 64 -sweep_max 15
IDENTITY_SMALL = -mat msdoor -n 1024 -sweep_max 5
IDENTITY_WIDE = -mat Flan_1565 -n 4096 -sweep_max 5
IDENTITY_DIRECT = -mat Flan_1565 -n 64 -sweep_max 15 -loc_solver direct
identity:
	@test -n "$(PARENT)" || { echo "usage: make identity PARENT=<checkout of the parent commit>"; exit 2; }
	@set -e; out=$$(mktemp -d); trap 'rm -rf "$$out"' EXIT; \
	$(GO) build -o $$out/new/ ./cmd/dsouthwell ./cmd/benchtables; \
	(cd "$(PARENT)" && $(GO) build -o $$out/old/ ./cmd/dsouthwell ./cmd/benchtables); \
	differ=0; lines=0; \
	for line in \
		"benchtables $(IDENTITY_TABLES)" \
		"benchtables -quick fig7 fig8 fig9" \
		"benchtables -quick fig2 fig5 fig6" \
		"dsouthwell $(IDENTITY_SOLVE)" \
		"dsouthwell $(IDENTITY_SOLVE) -x_zeros" \
		"dsouthwell $(IDENTITY_SOLVE) -chaos 0.3" \
		"dsouthwell $(IDENTITY_SOLVE) -loc_solver direct" \
		"dsouthwell $(IDENTITY_SOLVE) -solver ps" \
		"dsouthwell $(IDENTITY_SOLVE) -solver bj" \
		"dsouthwell $(IDENTITY_SOLVE) -solver pb16" \
		"dsouthwell $(IDENTITY_SMALL)" \
		"dsouthwell $(IDENTITY_SMALL) -chaos 0.3" \
		"dsouthwell $(IDENTITY_SMALL) -loc_solver direct" \
		"dsouthwell $(IDENTITY_WIDE)" \
		"dsouthwell $(IDENTITY_WIDE) -chaos 0.3" \
		"dsouthwell $(IDENTITY_DIRECT)" \
		"dsouthwell $(IDENTITY_DIRECT) -solver ps" \
		"dsouthwell $(IDENTITY_DIRECT) -solver bj" \
		"dsouthwell $(IDENTITY_SOLVE) -trace /dev/stdout" \
		"benchtables -quick scaling" \
		"dsouthwell $(IDENTITY_SOLVE) -chaos 0.3 -trace /dev/stdout" \
		"dsouthwell $(IDENTITY_SOLVE) -target 0.3" \
		"dsouthwell -grid 256 -n 2048 -sweep_max 20" \
		"dsouthwell $(IDENTITY_SMALL) -chaos 0.3 -sweep_max 40" \
		"dsouthwell $(IDENTITY_SMALL) -solver ps -chaos 0.3 -sweep_max 40"; \
	do \
		lines=$$((lines + 1)); \
		$$out/old/$$line >$$out/old.txt 2>&1 || echo "exit $$?" >>$$out/old.txt; \
		$$out/new/$$line >$$out/new.txt 2>&1 || echo "exit $$?" >>$$out/new.txt; \
		if cmp -s $$out/old.txt $$out/new.txt; then \
			echo "identity: same: $$line"; \
		else \
			echo "identity: DIFFERS: $$line"; differ=$$((differ + 1)); \
			diff $$out/old.txt $$out/new.txt | head -n 40 || true; \
		fi; \
	done; \
	test $$differ -eq 0 || { echo "identity: $$differ of $$lines lines differ"; exit 1; }

# Alternating end-to-end pairs against another checkout (a performance
# change's acceptance check; the house rule is at least ten pairs):
#   make bench-pairs PARENT=/path/to/checkout-of-the-parent-commit PAIRS=10 SEED=701
# builds benchmarks/e2e once in each tree, then runs PAIRS pairs of
# `-workload WORKLOAD -trace 0 -seconds SECONDS -seed SEED+i -out ...`,
# i = 0 ... PAIRS-1, the parent first on odd i and the change first on even
# i, each binary from its own tree (so each report's manifest names its own
# commit). The reports go to two temporary directories, parent/ and
# change/, which are kept and printed for the per-pair values; last comes
# `-compare parent change`. Not part of verify: it takes PAIRS x 2 runs of
# about 30 s with the defaults.
PAIRS ?= 10
SEED ?= 1
WORKLOAD ?= all
SECONDS ?= 3
bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs PARENT=<checkout of the parent commit> [PAIRS=10 SEED=1 WORKLOAD=all SECONDS=3]"; exit 2; }
	@set -e; out=$$(mktemp -d); here=$$(pwd); \
	$(GO) build -o $$out/bin/change ./benchmarks/e2e; \
	(cd "$(PARENT)" && $(GO) build -o $$out/bin/parent ./benchmarks/e2e); \
	mkdir -p $$out/parent $$out/change; \
	run() { \
		if [ $$1 = parent ]; then dir="$(PARENT)"; else dir=$$here; fi; \
		(cd "$$dir" && $$out/bin/$$1 -workload $(WORKLOAD) -trace 0 -seconds $(SECONDS) -seed $$2 -out $$out/$$1/$$2.json >/dev/null); \
	}; \
	i=0; while [ $$i -lt $(PAIRS) ]; do \
		seed=$$(($(SEED) + i)); \
		if [ $$((i % 2)) -eq 1 ]; then run parent $$seed; run change $$seed; \
		else run change $$seed; run parent $$seed; fi; \
		echo "bench-pairs: pair $$((i + 1)) of $(PAIRS) (seed $$seed) done"; \
		i=$$((i + 1)); \
	done; \
	echo "bench-pairs: reports in $$out/parent and $$out/change"; \
	$(GO) run ./benchmarks/e2e -compare $$out/parent $$out/change

verify: build lint test race chaos-smoke partition-pin alloc-gates fuzz examples results-check bench-smoke

# Micro-benchmarks for the phase engine, message path, numerical kernels,
# sparse local solver and tracing. Single-shot and machine-dependent: for
# reading one layer while working on it, not a performance record (that is
# BENCHMARK.json / `make bench-e2e`).
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/rma/ ./internal/dmem/ ./internal/bench/ ./internal/sparse/ ./internal/spdirect/ ./internal/obs/

clean:
	$(GO) clean ./...
