package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"time"

	"coevo/internal/cache"
	"coevo/internal/jobs"
	"coevo/internal/obs"
	"coevo/internal/runlog"
)

// runServe runs the analysis service: the observability server (metrics
// registry seeded with process and run-ledger gauges, pprof handlers,
// the ledger browser at /runs) plus the durable multi-tenant job queue
// at /jobs. Submitted studies execute on the streaming pipeline, share
// one content-addressed cache across jobs and tenants, seal into the
// run ledger, and — because the queue directory is durable — survive a
// server crash: interrupted jobs re-queue on the next start. This is
// the long-lived deployment shape.
//
// Every request is observed request-scoped: a W3C traceparent is
// accepted or minted per request and its trace id threads through the
// job record, SSE events, access log, run manifest and (with -trace)
// the exported span timeline; per-route/per-tenant RED metrics and the
// /status summary serve dashboards; the flight recorder keeps the
// recent-event black box that failed jobs dump for postmortems.
func runServe(ctx context.Context, args []string) error {
	fs := newFlagSet("serve")
	listen := fs.String("listen", "127.0.0.1:8080", "serve telemetry on this address (:0 picks a free port)")
	runlogDir := fs.String("runlog-dir", "runs", "run-ledger directory served at /runs; job runs seal into it")
	logLevel := fs.String("log-level", "info", "log level on stderr (debug, info, warn, error)")
	jobsDir := fs.String("jobs-dir", "jobs", "durable job-queue directory (interrupted jobs re-queue from it on restart)")
	jobsWorkers := fs.Int("jobs-workers", 2, "jobs executing concurrently")
	workers := fs.Int("workers", 0, "analysis workers inside each job (0 = GOMAXPROCS)")
	tenantRunning := fs.Int("tenant-running", 1, "per-tenant concurrently running job limit")
	tenantQuota := fs.Int("tenant-quota", 8, "per-tenant live (queued + running) job quota; submissions beyond it get 429")
	cacheDir := fs.String("cache-dir", "", "content-addressed cache directory shared by every job (empty: in-memory only)")
	tracePath := fs.String("trace", "", "record spans and write the Chrome trace-event JSON here on shutdown")
	flightEvents := fs.Int("flight-events", obs.DefaultFlightEvents,
		"flight-recorder ring size (recent events kept for failure dumps; 0 disables)")
	tenantLabels := fs.Int("tenant-labels", obs.DefaultTenantLabelCap,
		"distinct tenant label values admitted in metrics before collapsing to \"other\"")
	if ok, err := parseFlags(fs, args); !ok {
		return err
	}
	level, err := parseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	o := obs.New(obs.Options{Logger: logger, Trace: *tracePath != "", FlightEvents: *flightEvents})
	reg := o.Metrics()
	// The standalone server wants the same process gauges a study run
	// registers: heap, GC and goroutine visibility for a long-lived service.
	obs.RegisterProcMetrics(reg)
	runlog.RegisterMetrics(reg, *runlogDir)

	// One guard bounds the tenant label across every per-tenant series —
	// HTTP RED, queue wait, execution time — so a hostile client can mint
	// at most the cap, once, service-wide.
	guard := obs.NewLabelGuard(*tenantLabels)
	red := obs.NewRED(reg, guard)

	// One cache serves every job: the cross-job, cross-tenant dedup plane.
	c, err := cache.New(cache.Options{Dir: *cacheDir, Obs: o})
	if err != nil {
		return err
	}

	exec := &jobs.Executor{Cache: c, Obs: o, Workers: *workers, LedgerDir: *runlogDir}
	queue, err := jobs.Open(jobs.QueueOptions{
		Dir:              *jobsDir,
		Exec:             exec.Run,
		Workers:          *jobsWorkers,
		TenantMaxRunning: *tenantRunning,
		TenantMaxQueued:  *tenantQuota,
		Obs:              o,
		TenantGuard:      guard,
	})
	if err != nil {
		return err
	}
	queue.RegisterMetrics(reg)

	ledger := runlog.Handler(*runlogDir)
	jobAPI := jobs.Handler(queue)
	status := jobs.NewStatusHandler(jobs.StatusOptions{
		Queue: queue, Cache: c, RED: red, Flight: o.Flight(), Start: time.Now(),
	})
	srv, err := obs.Serve(obs.ServeOptions{
		Addr:     *listen,
		Registry: reg,
		Logger:   logger,
		Handlers: map[string]http.Handler{
			"/runs": ledger, "/runs/": ledger,
			"/jobs": jobAPI, "/jobs/": jobAPI,
			"/status": status,
		},
		Tenant: jobs.TenantFromRequest,
		RED:    red,
		Flight: o.Flight(),
	})
	if err != nil {
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		queue.Close(cctx) //nolint:errcheck // already failing; queue state is durable
		return err
	}
	// The service is ready as soon as it listens: jobs arrive over HTTP.
	srv.SetReady(true)
	fmt.Printf("serving analysis jobs and telemetry at %s (jobs %s, ledger %s); ctrl-c to stop\n",
		srv.URL(), queue.Dir(), *runlogDir)
	<-ctx.Done()
	// Drain first — /readyz flips to 503 the moment shutdown begins, so
	// load balancers stop routing while the listener still answers — then
	// stop the queue (interrupted jobs stay durable and re-queue on the
	// next start), then the HTTP server.
	srv.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	qerr := queue.Close(sctx)
	serr := srv.Shutdown(sctx)
	if *tracePath != "" {
		if terr := writeFile(*tracePath, func(w io.Writer) error { return o.WriteTrace(w) }); terr != nil {
			logger.Warn("serve: trace not written", "path", *tracePath, "err", terr)
		} else {
			fmt.Fprintf(os.Stderr, "trace written to %s\n", *tracePath)
		}
	}
	if qerr != nil {
		return qerr
	}
	return serr
}
