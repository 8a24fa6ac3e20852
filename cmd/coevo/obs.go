package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"time"

	"coevo/internal/cache"
	"coevo/internal/engine"
	"coevo/internal/obs"
	"coevo/internal/runlog"
	"coevo/internal/shard"
	"coevo/internal/study"
)

// pipeline bundles everything the corpus-wide subcommands (study, gen,
// taxa) thread through a run: the engine options, the optional result
// cache, the optional observer behind -trace/-log-level/-metrics, the
// optional live telemetry server behind -listen, the optional run-ledger
// manifest behind -runlog-dir, the profiling hooks, and the end-of-run
// flushing of all of it.
type pipeline struct {
	exec    engine.Options
	cache   *cache.Cache
	obs     *obs.Observer
	metrics *engine.Metrics
	proc    *obs.ProcStats
	server  *obs.Server

	showMetrics        bool
	tracePath, memPath string
	stopCPU            func() error

	linger   time.Duration
	ledger   string
	manifest *runlog.Manifest
}

// progressEvent is the JSON payload of one "project" SSE event on
// /progress: a per-project completion or failure.
type progressEvent struct {
	Scope   string  `json:"scope"`
	Name    string  `json:"name"`
	Done    int     `json:"done"`
	Total   int     `json:"total"`
	Seconds float64 `json:"seconds"`
	Failed  bool    `json:"failed,omitempty"`
	Err     string  `json:"err,omitempty"`
}

// snapshotEvent is the JSON payload of a "snapshot" SSE event: the
// run's rolling latency summary, published every snapshotEvery
// completions and at the end of each engine scope.
type snapshotEvent struct {
	Scope            string  `json:"scope"`
	Done             int     `json:"done"`
	Total            int     `json:"total"`
	Failed           int     `json:"failed"`
	P50Seconds       float64 `json:"p50_seconds"`
	P95Seconds       float64 `json:"p95_seconds"`
	MaxSeconds       float64 `json:"max_seconds"`
	ThroughputPerSec float64 `json:"throughput_per_sec"`
}

// snapshotEvery is the completion stride between "snapshot" SSE events.
const snapshotEvery = 25

// pipelineFlags registers the shared execution and observability flags on
// fs and returns a builder that assembles the pipeline after parsing.
func pipelineFlags(fs *flag.FlagSet) func() (*pipeline, error) {
	workers := fs.Int("workers", 0, "concurrent analysis workers (0 = GOMAXPROCS)")
	progress := fs.Bool("progress", false, "report per-decile progress and failures on stderr")
	metrics := fs.Bool("metrics", false, "print the unified metrics report (engine latency/throughput, stage totals, cache counters) on stderr")
	cacheDir := fs.String("cache-dir", "", "persist and reuse stage results in this content-addressed cache directory")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON file (chrome://tracing, Perfetto) to this path")
	logLevel := fs.String("log-level", "", "enable structured logs on stderr at this level (debug, info, warn, error)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile to this path at the end of the run")
	listen := fs.String("listen", "", "serve live telemetry (/metrics, /healthz, /readyz, /progress, /debug/pprof, /runs) on this address while the run executes (e.g. 127.0.0.1:8080, :0 picks a port)")
	linger := fs.Duration("linger", 0, "keep the -listen telemetry server up this long after the run finishes (ctrl-c stops it early)")
	runlogDir := fs.String("runlog-dir", "", "record the run's manifest (options, provenance, durations, cache and metrics snapshot) in this ledger directory")
	return func() (*pipeline, error) {
		p := &pipeline{showMetrics: *metrics, tracePath: *tracePath, memPath: *memProfile,
			linger: *linger, ledger: *runlogDir}
		// Any observability surface — trace, logs, the unified metrics
		// report, profiles, the telemetry server — wants the one Observer;
		// without them the pipeline runs with a nil (zero-cost) one.
		if *tracePath != "" || *logLevel != "" || *metrics || *memProfile != "" || *cpuProfile != "" || *listen != "" {
			oopts := obs.Options{Trace: *tracePath != ""}
			if *logLevel != "" {
				level, err := parseLogLevel(*logLevel)
				if err != nil {
					return nil, err
				}
				oopts.LogWriter = os.Stderr
				oopts.LogLevel = level
			}
			p.obs = obs.New(oopts)
		}
		// Process-memory gauges live in the registry (visible in /metrics
		// and the manifest's metrics snapshot); a ledger-only run still
		// tracks the peak so the manifest can record it.
		p.proc = obs.RegisterProcMetrics(p.obs.Metrics())
		if *runlogDir != "" {
			if p.proc == nil {
				p.proc = &obs.ProcStats{}
				p.proc.Sample()
			}
			p.manifest = runlog.NewManifest(fs.Name(), time.Now())
			p.manifest.Options = map[string]string{}
			fs.Visit(func(f *flag.Flag) {
				p.manifest.Options[f.Name] = f.Value.String()
			})
		}
		// The cache opens before the telemetry server so the server can
		// mount the remote tier route over it.
		if *cacheDir != "" {
			c, err := cache.New(cache.Options{Dir: *cacheDir, Obs: p.obs})
			if err != nil {
				return nil, err
			}
			p.cache = c
		}
		if *listen != "" {
			handlers := map[string]http.Handler{}
			if *runlogDir != "" {
				h := runlog.Handler(*runlogDir)
				handlers["/runs"] = h
				handlers["/runs/"] = h
				runlog.RegisterMetrics(p.obs.Metrics(), *runlogDir)
			}
			if p.cache != nil {
				// The remote cache tier: shard workers read and write this
				// run's cache at /cache/{key}, so a sharded study dedups
				// parse/diff/measure work across every worker process.
				handlers["/cache/"] = cache.TierHandler(p.cache)
			}
			srv, err := obs.Serve(obs.ServeOptions{
				Addr:     *listen,
				Registry: p.obs.Metrics(),
				Logger:   p.obs.Logger(),
				Handlers: handlers,
			})
			if err != nil {
				return nil, err
			}
			p.server = srv
			fmt.Fprintf(os.Stderr, "telemetry: %s/metrics, /healthz, /readyz, /progress, /debug/pprof\n", srv.URL())
		}
		p.exec = engine.Options{Workers: *workers, Obs: p.obs}
		var observers []func(engine.Event)
		if *progress {
			observers = append(observers, engine.NewProgress(os.Stderr).Observe)
		}
		// The metrics collector also feeds the SSE latency snapshots and
		// the ledger manifest, so either surface pulls it in.
		if *metrics || p.server != nil || p.manifest != nil {
			p.metrics = engine.NewMetrics()
			observers = append(observers, p.metrics.Observe)
		}
		if p.server != nil {
			observers = append(observers, p.publishEvent)
		}
		// Sharpen the heap-peak watermark at task boundaries — exposition
		// alone would only sample when something scrapes /metrics.
		if p.proc != nil {
			observers = append(observers, func(e engine.Event) {
				if e.Type == engine.TaskFinished || e.Type == engine.TaskFailed {
					p.proc.Sample()
				}
			})
		}
		if len(observers) > 0 {
			p.exec.OnEvent = engine.Tee(observers...)
		}
		// Register the cache counter family even for a cache-less run (nil
		// *Cache samples as all-zero), so the unified report's schema is
		// stable whether or not -cache-dir was passed.
		p.cache.RegisterMetrics(p.obs.Metrics())
		if *cpuProfile != "" {
			stop, err := obs.StartCPUProfile(*cpuProfile)
			if err != nil {
				return nil, err
			}
			p.stopCPU = stop
		}
		return p, nil
	}
}

// publishEvent forwards one engine event to the telemetry server's
// /progress SSE stream. The first analyze-scope event also flips /readyz:
// the corpus exists and the run is measuring it.
func (p *pipeline) publishEvent(e engine.Event) {
	if e.Scope == "analyze" {
		p.server.SetReady(true)
	}
	if e.Type != engine.TaskFinished && e.Type != engine.TaskFailed {
		return
	}
	ev := progressEvent{
		Scope: e.Scope, Name: e.Name, Done: e.Done, Total: e.Total,
		Seconds: e.Elapsed.Seconds(), Failed: e.Type == engine.TaskFailed,
	}
	if e.Err != nil {
		ev.Err = e.Err.Error()
	}
	p.server.Publish("project", ev)
	if p.metrics != nil && (e.Done == e.Total || e.Done%snapshotEvery == 0) {
		p.server.Publish("snapshot", p.snapshotEvent(e.Scope))
	}
}

// snapshotEvent summarizes the metrics collector for the SSE stream.
func (p *pipeline) snapshotEvent(scope string) snapshotEvent {
	s := p.metrics.Snapshot()
	return snapshotEvent{
		Scope: scope, Done: s.Done, Total: s.Total, Failed: s.Failed,
		P50Seconds: s.P50.Seconds(), P95Seconds: s.P95.Seconds(),
		MaxSeconds: s.Max.Seconds(), ThroughputPerSec: s.Throughput,
	}
}

// recordRun notes a run's coverage in the manifest: project and failure
// counts plus the per-project failure summary.
func (p *pipeline) recordRun(projects int, failures []study.Failure) {
	if p.manifest == nil {
		return
	}
	p.manifest.Projects = projects
	p.manifest.Failed = len(failures)
	for _, f := range failures {
		p.manifest.Failures = append(p.manifest.Failures,
			runlog.FailureSummary{Name: f.Name, Err: f.Err.Error()})
	}
}

// recordSharded notes a coordinated sharded run in the manifest: the
// whole-study coverage, the per-shard run summaries, and the
// across-shard cache and stage sums — so `coevo runs diff` and the perf
// gate compare whole-study numbers, not the coordinator's (empty) local
// view.
func (p *pipeline) recordSharded(res *shard.Result, shards int) {
	if p.manifest == nil || res == nil {
		return
	}
	p.recordRun(res.Projects, res.Failures)
	p.manifest.Shards = shards
	p.manifest.ShardRuns = res.Shards
	p.manifest.TraceID = res.TraceID
	p.manifest.Cache = res.Cache
	p.manifest.StageSeconds = res.StageSeconds
}

// sealManifest fills the manifest's run summary from the metrics
// collector and registry, stamps the outcome, and writes it into the
// ledger directory.
func (p *pipeline) sealManifest(runErr error) error {
	m := p.manifest
	m.Workers = p.exec.Workers
	// A sharded run records the across-shard stage and cache sums up
	// front (recordSharded); the local collector and cache saw none of
	// that work, so they only fill fields that are still empty.
	if m.Cache == nil {
		m.Cache = p.cache.Stats().Recorded()
	}
	if p.metrics != nil {
		m.RecordEngine(p.metrics.Snapshot())
	}
	p.proc.Sample()
	m.PeakHeapBytes = p.proc.Peak()
	m.Metrics = p.obs.Metrics().Snapshot()
	m.Finish(time.Now(), runErr)
	path, err := runlog.Write(p.ledger, m)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded run %s in %s\n", m.ID, path)
	return nil
}

// parseLogLevel maps the -log-level flag value to a slog level.
func parseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("invalid -log-level %q (want debug, info, warn or error)", s)
}

// finish flushes the run's observability artifacts — the CPU profile, the
// unified metrics report, the trace file, the heap profile and the ledger
// manifest — then winds down the telemetry server (after -linger, so CI
// and humans can scrape a finished run before the process exits). A
// subcommand defers it right after building the pipeline, so it runs
// once, after rendering, on every path: the artifacts cover the whole
// command, and a failed or interrupted run still leaves a loadable trace,
// profile and ledger entry behind. runErr stamps the manifest outcome and
// is returned when set; otherwise the first flushing error is.
func (p *pipeline) finish(ctx context.Context, runErr error) error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if p.stopCPU != nil {
		keep(p.stopCPU())
	}
	if p.showMetrics {
		if p.metrics != nil {
			fmt.Fprintf(os.Stderr, "%s\n", p.metrics.Snapshot())
		}
		fmt.Fprintln(os.Stderr, "metrics registry:")
		keep(p.obs.Metrics().WritePrometheus(os.Stderr))
	}
	if p.tracePath != "" {
		keep(writeFile(p.tracePath, func(w io.Writer) error { return p.obs.WriteTrace(w) }))
		fmt.Fprintf(os.Stderr, "wrote trace (%d spans) to %s\n", p.obs.SpanCount(), p.tracePath)
	}
	if p.memPath != "" {
		keep(obs.WriteHeapProfile(p.memPath))
	}
	// Seal the ledger entry before lingering, so /runs already serves this
	// run while the telemetry server is still up.
	if p.manifest != nil {
		keep(p.sealManifest(runErr))
	}
	if p.server != nil {
		if p.metrics != nil {
			p.server.Publish("done", p.snapshotEvent("run"))
		}
		if p.linger > 0 && ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "telemetry server lingering %s at %s (ctrl-c to stop)\n",
				p.linger, p.server.URL())
			select {
			case <-ctx.Done():
			case <-time.After(p.linger):
			}
		}
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		keep(p.server.Shutdown(sctx))
	}
	if runErr != nil {
		return runErr
	}
	return firstErr
}
