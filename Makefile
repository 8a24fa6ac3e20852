# Build/verify targets for the coevo toolkit.

GO ?= go

.PHONY: build test verify bench microbench race vet fuzz-smoke perf-gate perf-gate-self-test loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# verify is the full gate: gofmt-clean sources, compile everything, vet,
# and run the test suite under the race detector — the execution engine's
# concurrency must stay race-clean. The allocation budgets (the
# *AllocBudget tests) skip under the race detector, so they run again
# without it. The benchmark module (bench/) imports internal APIs, so it
# is vetted too.
verify:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) build ./... && $(GO) vet ./... && $(GO) test -race ./...
	$(GO) test -count=1 -run AllocBudget ./...
	cd bench && $(GO) vet ./...

# loc prints the number of non-test Go lines outside bench/, the measure
# of code size the ROADMAP tracks.
loc:
	@git ls-files -- '*.go' ':(exclude)*_test.go' ':(exclude)bench/' | xargs cat | wc -l

# bench times full study runs — cold and warm cache, workers=1 vs
# NumCPU, streaming and sharded — and writes the machine-readable report
# (per-case peak heap, allocs/project, alloc bytes/project) CI archives
# with every build, plus a ledger manifest 'coevo runs diff' can compare
# across builds. The Go benchmark pass adds the streaming-vs-collect-all
# heap profile. BENCH_SHARDS adds the sharded partition/merge cell (the
# perf gate's own bench run omits it so its matrix shape stays
# comparable to pre-shard baselines).
BENCH_OUT ?= BENCH_pr7.json
BENCH_SHARDS ?= 3
RUNLOG_DIR ?= runs

bench:
	$(GO) run ./cmd/coevo bench -shards $(BENCH_SHARDS) -out $(BENCH_OUT) -runlog-dir $(RUNLOG_DIR)
	$(GO) test -run NONE -bench BenchmarkStudyStreaming -benchmem .

# perf-gate is the hard CI performance gate: a fresh workers=1 bench run
# is diffed against the baseline manifest embedded in the committed
# BENCH report, and any wall-time / allocs-per-project / peak-heap
# regression past PERF_GATE_THRESHOLD (default 25%) fails the build.
# The self-test fabricates a 1.5x-regressed run and asserts the gate
# catches it.
PERF_BASELINE ?= BENCH_pr7.json

perf-gate:
	./scripts/perf-gate.sh $(PERF_BASELINE)

perf-gate-self-test:
	./scripts/perf-gate.sh --self-test $(PERF_BASELINE)

# microbench runs the per-figure/table and ablation Go benchmarks.
microbench:
	$(GO) test -bench=. -benchmem ./...

# fuzz-smoke gives each fuzz target a short budget — enough to shake out
# shallow regressions in the parser round-trip and diff invariants without
# a dedicated fuzzing box.
FUZZTIME ?= 30s

# FuzzParseLenient sweeps every dialect (plus Auto) per input.
# FuzzPartialFiguresCodec hammers the sharded-study partial-figures
# decoder: no panic on arbitrary bytes, canonical re-encoding idempotent.
# FuzzParse holds gitlog.Parse to the scanner-based reference parser and
# round-trips every log it accepts through Emit.
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzParseLenient -fuzztime $(FUZZTIME) ./internal/sqlddl
	$(GO) test -run NONE -fuzz FuzzCompare -fuzztime $(FUZZTIME) ./internal/schemadiff
	$(GO) test -run NONE -fuzz FuzzPartialFiguresCodec -fuzztime $(FUZZTIME) ./internal/study
	$(GO) test -run NONE -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/gitlog
