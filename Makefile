GO ?= go

.PHONY: check ci build vet build-cross test test-race cover bench bench-smoke bench-allocs bench-obs fuzz-smoke lens-golden staticcheck archive-smoke scenario-gate ledger-test

check: vet build test-race fuzz-smoke lens-golden scenario-gate ledger-test

# ci mirrors .github/workflows/ci.yml: formatting gate, vet, build,
# the arm64 and 386 cross-builds and vets, race-enabled tests, the benchmark ledger module's vet and tests,
# coverage, the benchmark smoke run, the scenario robustness gate, the
# runlens golden diff, and the run-archive smoke.
ci: fmt-check vet staticcheck build build-cross test-race ledger-test cover bench-smoke scenario-gate lens-golden archive-smoke

.PHONY: fmt-check
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# build-cross cross-builds and vets for arm64 and 386, where
# internal/dist's batch kernels are their plain-Go twins instead of the
# amd64 assembly, so the twin path keeps compiling; 386 also has a
# 32-bit int. 386 binaries run on a linux/amd64 host, so it also tests
# the packages whose code depends on the word size or the architecture:
# internal/dataset (the binary header's point limit) and internal/dist
# (the kernels' plain-Go twins). It needs no arm64 host.
build-cross:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./... && GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test ./internal/dataset/ ./internal/dist/

# staticcheck is optional locally (CI installs a pinned version); skip
# with a notice rather than fail when the binary is absent.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# bench/ledger is its own Go module (it replaces proclus with the
# checkout), so the root ./... patterns never reach it; vet and test it
# from inside its directory.
ledger-test:
	cd bench/ledger && $(GO) vet ./... && $(GO) test ./...

cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1

bench:
	$(GO) test -bench=. -benchmem ./...

# Short coverage-guided fuzz runs over the binary reader, the block
# scanner, the bounded distance kernels the benchmark ledger replays,
# the batch distance kernels (assembly against their plain-Go twins)
# and the confusion matrix. The checked-in corpora under */testdata/fuzz
# replay on every plain `go test`; this target additionally mutates for
# FUZZTIME per target to catch fresh regressions. Each -fuzz invocation
# must name exactly one target, hence one run per target.
FUZZTIME ?= 5s

fuzz-smoke:
	$(GO) test -run xxx -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME) ./internal/dataset/
	$(GO) test -run xxx -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME) ./internal/dataset/
	$(GO) test -run xxx -fuzz '^FuzzBlockScanner$$' -fuzztime $(FUZZTIME) ./internal/dataset/
	$(GO) test -run xxx -fuzz '^FuzzSegmentalBounded$$' -fuzztime $(FUZZTIME) ./internal/dist/
	$(GO) test -run xxx -fuzz '^FuzzSegmentalRows$$' -fuzztime $(FUZZTIME) ./internal/dist/
	$(GO) test -run xxx -fuzz '^FuzzAddAbsDiffs$$' -fuzztime $(FUZZTIME) ./internal/dist/
	$(GO) test -run xxx -fuzz '^FuzzNewConfusion$$' -fuzztime $(FUZZTIME) ./internal/eval/

# scenario-gate runs the robustness workload suite: every
# scenario×algorithm cell (heavy noise, oriented clusters, imbalanced
# sizes, near-duplicate pairs, high-dimensional sparse relevance) is
# rerun through the algorithm registry and held to its committed
# quality floors and counter pins (internal/scenarios/golden/*.json),
# and the perturbation test proves a degraded golden fails. Regenerate
# deliberately with
# `go test ./internal/scenarios -run '^TestScenarioGate$$' -update`.
scenario-gate:
	$(GO) test -count=1 -run '^TestScenarioGate' -v ./internal/scenarios/

# One iteration per benchmark: proves the benchmarks still compile and
# run without spending minutes on stable timings (the CI smoke job).
# BenchmarkProclusRun keeps a whole PROCLUS fit on the ledger's case1
# and highdim shapes running, BenchmarkRunStream a whole streamed fit
# over a 200,000-point case1-shaped file, BenchmarkZRow the
# FindDimensions kernel at d = 20 and d = 100,
# BenchmarkCandidateTable the hill climb's candidate table on the
# highdim shape, BenchmarkLocality the table's locality scan and
# BenchmarkObjective a trial's objective pass on both shapes,
# BenchmarkPickSmallest a trial's dimension allocation, and
# BenchmarkSegmentalRows and BenchmarkAddAbsDiffs the two batch
# distance kernels every one of those passes runs. BenchmarkAblation
# runs the reference fits behind EXPERIMENTS.md's ablation table
# (internal/core: initialization, assignment metric, refinement).
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkAssign|BenchmarkProclusRun|BenchmarkRunStream|BenchmarkZRow|BenchmarkCandidateTable|BenchmarkLocality|BenchmarkObjective|BenchmarkPickSmallest|BenchmarkSegmentalRows|BenchmarkAddAbsDiffs|BenchmarkAblation' -benchtime 1x ./internal/core/ ./internal/alloc/ ./internal/dist/

# Allocation smoke: every distance kernel (the batch kernels
# BenchmarkSegmentalRows and BenchmarkAddAbsDiffs included), the Z-row kernel
# (BenchmarkZRow), the locality scan (BenchmarkLocality), the objective
# pass (BenchmarkObjective) and the dimension picker
# (BenchmarkPickSmallest) must report 0 allocs/op, and
# the assignment-pass
# benchmarks and the candidate table surface their per-pass allocation
# counts (a 1x run shows only one-time buffer setup). The steady-state
# zero-alloc guarantee itself is enforced by
# TestIncrementalSteadyStateAllocs; this target keeps -benchmem data in
# the CI logs so allocation creep is visible at a glance. The dataset
# I/O benchmarks (LoadFile, a no-op FileSource pass, the assignment CSV
# writer, all at 10k×20) log the I/O layer's bytes/op and allocs/op.
# BenchmarkRun logs a whole ORCLUS fit's and a whole CLIQUE fit's
# allocs/op on the benchmark ledger's baselines shape, at one worker and
# at GOMAXPROCS, and a whole k-medoids fit's on the same shape at its
# one worker.
bench-allocs:
	$(GO) test -run xxx -bench . -benchtime 100x -benchmem ./internal/dist/
	$(GO) test -run xxx -bench 'BenchmarkAssign' -benchtime 1x -benchmem ./internal/core/
	$(GO) test -run xxx -bench 'BenchmarkZRow|BenchmarkCandidateTable|BenchmarkLocality|BenchmarkObjective' -benchtime 20x -benchmem ./internal/core/
	$(GO) test -run xxx -bench 'BenchmarkPickSmallest' -benchtime 100x -benchmem ./internal/alloc/
	$(GO) test -run xxx -bench 'BenchmarkLoadFile|BenchmarkFileSourcePass|BenchmarkWriteAssignments' -benchtime 20x -benchmem ./internal/dataset/
	$(GO) test -run xxx -bench 'BenchmarkRun' -benchtime 3x -benchmem ./internal/orclus/
	$(GO) test -run xxx -bench 'BenchmarkRun' -benchtime 3x -benchmem ./internal/clique/
	$(GO) test -run xxx -bench 'BenchmarkRun' -benchtime 3x -benchmem ./internal/medoid/

# Observability overhead: the trial engine's assignment pass with every
# projected column dirty, instrumented (counters on, observer nil) and
# with a JSON tracer attached, vs an uninstrumented replica of it.
# Compare medians; the instrumented pass must stay within ~2%.
bench-obs:
	$(GO) test -run xxx -bench 'BenchmarkAssign' -count 5 ./internal/core/

# lens-golden runs the trace analyzer against the checked-in golden
# trace and series snapshot plus the archive subcommands (ls, diff,
# trend) against a deterministic in-test archive, and diffs every
# report against its committed golden. Regenerate deliberately with
# `go test ./cmd/runlens -run 'TestGoldenSummary|TestArchiveGoldens' -update`.
lens-golden:
	$(GO) test -run 'TestGoldenSummary|TestArchiveGoldens' ./cmd/runlens/

# archive-smoke drives the run archive end to end on a small synthetic
# dataset: two identical-seed runs must archive and diff clean (exit
# 0 — the deterministic counters reproduce exactly), and a third run
# with a perturbed configuration must make `runlens diff` exit
# non-zero. Also exercises `runlens ls` and `runlens trend` over the
# same archive.
ARCHIVE_SMOKE = archive/smoke

archive-smoke:
	rm -rf $(ARCHIVE_SMOKE)
	@mkdir -p archive
	$(GO) run ./cmd/datagen -n 2000 -dims 10 -k 3 -avgdims 4 -seed 9 -o $(ARCHIVE_SMOKE)-data.bin
	$(GO) run ./cmd/pcluster -algo proclus -in $(ARCHIVE_SMOKE)-data.bin -k 3 -l 4 -seed 5 -archive $(ARCHIVE_SMOKE)
	$(GO) run ./cmd/pcluster -algo proclus -in $(ARCHIVE_SMOKE)-data.bin -k 3 -l 4 -seed 5 -archive $(ARCHIVE_SMOKE)
	$(GO) run ./cmd/runlens ls -archive $(ARCHIVE_SMOKE)
	$(GO) run ./cmd/runlens diff -archive $(ARCHIVE_SMOKE) @1 @0
	$(GO) run ./cmd/pcluster -algo proclus -in $(ARCHIVE_SMOKE)-data.bin -k 4 -l 4 -seed 5 -archive $(ARCHIVE_SMOKE)
	@if $(GO) run ./cmd/runlens diff -archive $(ARCHIVE_SMOKE) @1 @0 >/dev/null 2>&1; then \
		echo "archive-smoke: perturbed-config diff exited 0, want non-zero" >&2; \
		exit 1; \
	else \
		echo "archive-smoke: perturbed-config diff correctly non-zero"; \
	fi
	$(GO) run ./cmd/runlens trend -archive $(ARCHIVE_SMOKE)
	rm -rf $(ARCHIVE_SMOKE) $(ARCHIVE_SMOKE)-data.bin
