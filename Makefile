# Build/verify targets for the coevo toolkit.

GO ?= go

.PHONY: build test verify bench microbench race vet fuzz-smoke smoke stream-smoke jobs-smoke trace-smoke shard-smoke parse-health-smoke perf-gate perf-gate-self-test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# verify is the full gate: compile everything, vet, and run the test
# suite under the race detector — the execution engine's concurrency must
# stay race-clean.
verify:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test -race ./...

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

# smoke runs a full study with the live telemetry plane enabled and
# checks every endpoint of the embedded server answers while the process
# lingers; CI runs this against a random port.
SMOKE_ADDR ?= 127.0.0.1:9188

smoke:
	./scripts/telemetry-smoke.sh $(SMOKE_ADDR) $(RUNLOG_DIR)

# jobs-smoke starts the analysis service, submits a study over the
# /jobs HTTP API, asserts its figures match the same-seed CLI run byte
# for byte, and that a duplicate submission from a second tenant is
# served from the shared result cache.
JOBS_SMOKE_ADDR ?= 127.0.0.1:9288
JOBS_SMOKE_WORK ?= jobs-smoke-work

jobs-smoke:
	./scripts/jobs-smoke.sh $(JOBS_SMOKE_ADDR) $(JOBS_SMOKE_WORK)

# trace-smoke proves end-to-end correlation: one submitted traceparent's
# trace id must surface in the job record, the sealed run manifest, the
# access log and the exported span timeline (queue-wait span included),
# and a forced-failure job must leave a correlated flight-recorder dump.
TRACE_SMOKE_ADDR ?= 127.0.0.1:9289
TRACE_SMOKE_WORK ?= trace-smoke-work

trace-smoke:
	./scripts/trace-smoke.sh $(TRACE_SMOKE_ADDR) $(TRACE_SMOKE_WORK)

# stream-smoke runs a corpus ~10x the paper's through the study under a
# GOMEMLIMIT a collect-all run cannot fit in, and asserts the
# ledger-recorded peak heap stayed under the cap.
STREAM_SMOKE_PER_TAXON ?= 334
STREAM_SMOKE_RUNLOG ?= stream-smoke-runs

stream-smoke:
	./scripts/stream-smoke.sh $(STREAM_SMOKE_PER_TAXON) $(STREAM_SMOKE_RUNLOG)

# shard-smoke runs a ~2000-project study across 3 spawned worker
# processes and asserts the merged figures and CSV are byte-identical to
# the single-process reference (cold and warm cache), that the warm run
# hits the remote cache tier, and that every shard manifest carries the
# coordinator's trace id.
SHARD_SMOKE_PER_TAXON ?= 334
SHARD_SMOKE_WORK ?= shard-smoke-work

shard-smoke:
	./scripts/shard-smoke.sh $(SHARD_SMOKE_PER_TAXON) $(SHARD_SMOKE_WORK)

# parse-health-smoke runs `coevo parse` over the messy per-dialect DDL
# fixture corpus: every fixture must yield statements, every diagnostic
# must carry a taxonomy code, and auto-detection must agree with the
# explicit dialect. Reports land in PARSE_HEALTH_OUT for CI upload.
PARSE_HEALTH_OUT ?= parse-health

parse-health-smoke:
	./scripts/parse-health-smoke.sh $(PARSE_HEALTH_OUT)

# microbench runs the per-figure/table and ablation Go benchmarks.
microbench:
	$(GO) test -bench=. -benchmem ./...

# fuzz-smoke gives each fuzz target a short budget — enough to shake out
# shallow regressions in the parser round-trip and diff invariants without
# a dedicated fuzzing box.
FUZZTIME ?= 30s

# FuzzParseLenient sweeps every dialect (plus Auto) per input;
# FuzzParseValueCodec round-trips partial scripts through the versioned
# parse-value codec.
# FuzzPartialFiguresCodec hammers the sharded-study partial-figures
# decoder: no panic on arbitrary bytes, canonical re-encoding idempotent.
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzParseLenient -fuzztime $(FUZZTIME) ./internal/sqlddl
	$(GO) test -run NONE -fuzz FuzzParseValueCodec -fuzztime $(FUZZTIME) ./internal/schema
	$(GO) test -run NONE -fuzz FuzzCompare -fuzztime $(FUZZTIME) ./internal/schemadiff
	$(GO) test -run NONE -fuzz FuzzPartialFiguresCodec -fuzztime $(FUZZTIME) ./internal/study
