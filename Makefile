# Developer entry points. `make ci` is what .github/workflows/ci.yml runs.

GO ?= go

.PHONY: build vet test race portable fuzz bench bench-nearfield bench-dense bench-vlist bench-setup bench-smoke bench-check sched-stress shard-stress session-stress lint lint-baseline lint-inject loc probe probe-check ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The root package needs 20-31 min under -race on two cores, past go test's
# 10 min default timeout.
race:
	$(GO) test -race -timeout 60m ./...

# The build without the amd64 vector kernels (internal/linalg/mulvec_amd64.s,
# which also holds the CPU probe, internal/kernel/panel_amd64.s,
# internal/kifmm/hadamard_amd64.s) is the one other architectures get: test
# the three packages through the conventional purego tag, vet them for arm64
# so a file that only amd64 compiles shows in any of them, and write the
# potentials probe from the purego build into a temporary file that must equal
# probe.txt byte for byte: every Go loop evaluates the bits the vector kernels
# do. Then the kernel and Yukawa tests under GODEBUG=cpu.fma=off, where
# math.Exp takes its unfused path: the Yukawa vector bodies, whose exp is
# math.Exp's FMA path, must see that and stay off (TestExpProbeDecides), so
# every Yukawa EvalPanel/EvalPair body still equals its Go loop bit for bit.
# probe.txt is not compared in that mode: math.Exp's own bits move, and the
# Yukawa lines with them.
portable:
	$(GO) test -tags purego ./internal/linalg ./internal/kernel ./internal/kifmm
	GODEBUG=cpu.fma=off $(GO) test -count=1 -run 'Yukawa|EvalPanel|EvalPair|Exp' ./internal/kernel/ .
	GOARCH=arm64 $(GO) vet ./internal/linalg ./internal/kernel ./internal/kifmm
	@tmp=$$(mktemp) && \
	KIFMM_PROBE=$$tmp $(GO) test -tags purego -run '^TestProbe$$' -count=1 -timeout 30m . && \
	diff -u probe.txt $$tmp; rc=$$?; rm -f $$tmp; exit $$rc

# Native fuzz targets, a bounded run each: vector EvalPanel ≡ Go loop and no
# store outside the panel; every EvalPair body (AVX2 with its Go tail, Go
# loop, the method) ≡ the two EvalPanel calls it replaces, both outputs, on
# panel lengths up to 200, coincident points across the panels, NaN/±Inf and
# extreme-scale coordinates, with no store outside aout or bpart; every V-list Hadamard list body (AVX-512, AVX2,
# Go loop) ≡ the scalar reference applied triple by triple, on one-triple
# panels of every length and alignment and on random triple lists that
# repeat accumulators and share sources (corpus in
# internal/kifmm/testdata/fuzz/FuzzHadamardList); the packed
# matrix-vector product (vector kernel and Go panel loop, MulVec and
# MulVecAdd) ≡ the row loop, bit for bit, on every Rows%4, 0 and 1 columns,
# NaN/±Inf entries and wide magnitude spreads, with no store outside y; the
# wire options decoder (strict decode → Validate → New) errors or yields a
# solver, never panics, refuses every retired field by name, every order
# above MaxOrder and every shard_comm but "simple";
# arbitrary request bodies on /v1/evaluate and /v1/session/{id}/step answer
# anything but a panic or a 5xx; the Morton key algebra (FromPoint and its
# clamp, ancestors, child/parent, neighbours, the wire record) on arbitrary
# points; the fused Jacobi SVD ≡ the reference loop, bit for bit, on small
# matrices; a session driven by arbitrary deltas refuses exactly the malformed
# ones, unchanged, and otherwise ≡ a fresh plan of its points, bit for bit.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzEvalPanel -fuzztime=10s ./internal/kernel
	$(GO) test -run='^$$' -fuzz=FuzzEvalPair -fuzztime=10s ./internal/kernel
	$(GO) test -run='^$$' -fuzz=FuzzHadamardPanels -fuzztime=10s ./internal/kifmm
	$(GO) test -run='^$$' -fuzz=FuzzHadamardList -fuzztime=10s ./internal/kifmm
	$(GO) test -run='^$$' -fuzz=FuzzMulVec -fuzztime=10s ./internal/linalg
	$(GO) test -run='^$$' -fuzz=FuzzSolverOptionsJSON -fuzztime=10s ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzRequestBodies -fuzztime=10s ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzMortonKey -fuzztime=10s ./internal/morton
	$(GO) test -run='^$$' -fuzz=FuzzComputeSVD -fuzztime=10s ./internal/linalg
	$(GO) test -run='^$$' -fuzz=FuzzSessionStep -fuzztime=10s .

bench:
	$(GO) test -bench=. -benchmem

# Panel vs pairwise micro-kernel comparison on the 30k ellipsoid tree
# (BenchmarkNearField{ULI,D2T,WLI} × {laplace,stokes,yukawa} ×
# {float64 panel, pairwise}; the near field has one precision; the panel U
# row serves mutual leaf pairs both ways with EvalPair), after the kernel
# micro-rows: ns/pair of one EvalPanel on a 400×400 and a 50×152 panel, and
# ns per directed pair of one EvalPair against the two EvalPanel calls it
# replaces on 400×400 and 50×50 (BenchmarkNearFieldPanel, pair and twopanel).
bench-nearfield:
	$(GO) test ./internal/kernel/ -run='^$$' -bench=BenchmarkNearFieldPanel
	$(GO) test ./internal/kifmm/ -run='^$$' -bench=BenchmarkNearField -benchmem

# Dense translation micro-rows: one matrix-vector product at the largest
# surface operator shapes (152², Laplace order 6; 294², Stokes order 5)
# through the row loop (scalar), the packed product (the AVX2 kernel where
# the CPU has it) and the Go panel loop alone (packed-go, what purego builds
# run), on one L2-resident operator and rotating over a level's 18.
bench-dense:
	$(GO) test ./internal/linalg/ -run='^$$' -bench=BenchmarkMulVec

# V-list micro-rows: the Hadamard list kernel's ns per product for each body
# (avx512, avx2 where the CPU has them; go) on L2-resident panels, on
# streamed panels and on one order-6 parent-direction run handed over one
# L1 chunk at a time (BenchmarkHadamard), then one whole FFT V-list pass on
# the 30k-point ellipsoid tree against the dense oracle (BenchmarkVList).
bench-vlist:
	$(GO) test ./internal/kifmm/ -run='^$$' -bench='^BenchmarkHadamard$$'
	$(GO) test ./internal/kifmm/ -run='^$$' -bench='^BenchmarkVList$$' -benchmem

# Set-up micro-benchmarks: the fused Jacobi SVD of the largest surface
# matrices the workloads invert (BenchmarkComputeSVD, n = 152 and 294), then
# one operator build per kernel at NewOperators' fan-out
# (BenchmarkNewOperators: laplace/6, stokes/5, one yukawa/6 level), then
# one plan's graph compile on the far_uniform tree (BenchmarkCompile).
bench-setup:
	$(GO) test ./internal/linalg/ -run='^$$' -bench=BenchmarkComputeSVD
	$(GO) test ./internal/kifmm/ -run='^$$' -bench=BenchmarkNewOperators
	$(GO) test ./internal/kifmm/ -run='^$$' -bench=BenchmarkCompile -benchmem

# Compile-and-run every benchmark exactly once: catches bitrot in benchmark
# code without paying for real measurement (the -run pattern matches no
# tests).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# The repo's benchmark (BENCHMARK.json; run it with `go run -C bench .`) is
# its own module, which `./...` from the root never compiles: vet it and run
# its tests so a change to an API it drives breaks here.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# Repeated race runs of the task scheduler (one shared ready stack) and its
# parallel loop sched.For (randomized-DAG property tests are seeded per run,
# so -count=5 explores new graphs, each run five times in a row, after a
# panicking and a cancelled run and four times at once; the scheduler's
# worker-index exclusivity test makes any violation a reported race rather
# than a flaky count), then of the FMM graph against its sequential oracle at
# 1, 2 and 4 workers, of the paired U row and W ⟷ X against their one-way
# walks (a partial one task parks is read by another) and of the pairing's
# links against their graphs' edges, of one plan's compiled graph
# run by four goroutines at once, and of an engine's run after a stopped one,
# then of concurrent profiled Applies on one plan sharing one profile (the
# engines' ledgers meet the profile in one merge each), then of the service's
# cancellation tests: a deadline that fires while a request is queued,
# mid-step, and mid-Apply under load.
sched-stress:
	$(GO) test -race -count=5 ./internal/sched/...
	$(GO) test -race -count=2 -run '^(TestEvaluateDAGBitIdentical|TestEvaluateDAGRepeatable|TestULIPairsMatchOneWay|TestWXPairsMatchOneWay|TestPairingLinks|TestPlanCompilesScheduleOnce|TestStoppedRunRecovers)$$' ./internal/kifmm/
	$(GO) test -race -count=3 -run '^TestProfileSharedByConcurrentApplies$$' .
	$(GO) test -race -count=3 -run '^(TestExpiredWhileQueued|TestStepCancelledLeavesSession|TestDeadlineFreesWorker)$$' ./internal/service/

# Repeated race runs of the sharded differential tests: the multi-rank
# coordinated apply exercises the in-process MPI runtime, the engine free
# list, and the disjoint-write potential gather under the race detector.
shard-stress:
	$(GO) test -race -count=3 ./internal/shard/...

# Repeated race runs of the moving-points session tests: every step re-plans,
# and the session must agree with a fresh plan bit for bit under the race
# detector across repeated delta sequences.
session-stress:
	$(GO) test -race -count=3 -run 'Session|Step|RemoveAllButOne' .

# Project-specific static analysis (DESIGN.md §7.5, §7.9): one fmmvet run
# over the whole program in one process — the body analyzers under the
# propagated //fmm:hotpath / //fmm:deterministic scope, lock-order cycles and
# unlocks with no preceding lock, and the compiler-backed escape diff against
# escape_baseline.txt.
# Machine-readable output is available via `go run ./cmd/fmmvet -json ./...`.
lint:
	$(GO) run ./cmd/fmmvet ./...

# Regenerate escape_baseline.txt after an *intentional* change to hot-path
# escape behavior (new function in the hot closure, refactor that moves an
# allocation). `make lint` diffs `go build -gcflags=-m=1`
# output for hot-path functions against this file and fails on any new heap
# escape; review the diff in the regenerated baseline before committing it.
lint-baseline:
	$(GO) run ./cmd/fmmvet -write-escape-baseline ./...

# Negative test for the lint gate itself: copies the tree to a scratch dir,
# plants a cross-package hot-path allocation, an AB/BA lock-order cycle, a
# hot-path escape regression, an allocation in the V-list group body, an
# escape through the Hadamard assembly stub, a GOMAXPROCS branch in
# deterministic code, a per-octant profile call in the S2U body and an unlock
# with no preceding lock — at least one per analyzer — and asserts each one
# FAILS fmmvet with the expected diagnostic. Guards against the analyzers being
# silently wedged open (a bad baseline, an over-broad allow, a scope bug).
lint-inject:
	./scripts/lint_inject.sh

# Go line counts every simplicity PR reports: non-test and test, without
# bench/ (its own module) and the analyzers' testdata fixtures.
loc:
	@printf '%s non-test / %s test\n' \
		$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs cat | wc -l) \
		$$(find . -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs cat | wc -l)

# The potentials probe (probe_test.go): writes probe.txt, one `name sha256`
# line per public-API configuration. The checked-in file is the rule
# probe-check enforces: arithmetic does not change by accident. A PR that
# means to change arithmetic regenerates the file with `make probe` and
# explains every line that moved.
probe:
	KIFMM_PROBE=$(CURDIR)/probe.txt $(GO) test -run '^TestProbe$$' -count=1 -timeout 30m .

probe-check: probe
	git diff --exit-code -- probe.txt

ci: build vet portable lint lint-inject race probe-check fuzz sched-stress shard-stress session-stress bench-smoke bench-check
