package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"coevo/internal/cache"
	"coevo/internal/obs"
	"coevo/internal/report"
	"coevo/internal/runlog"
	"coevo/internal/shard"
)

// runShard dispatches the shard worker subcommands. Today that is only
// `shard serve` — the long-lived (or spawned-per-study) worker process a
// sharded study fans out to.
func runShard(ctx context.Context, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: coevo shard serve [flags]")
	}
	switch args[0] {
	case "serve":
		return runShardServe(ctx, args[1:])
	default:
		return fmt.Errorf("unknown shard subcommand %q (want serve)", args[0])
	}
}

// runShardServe runs one shard worker: an obs.Serve server whose
// /shard/run route executes study partitions. The first stdout line is
// the worker's base URL — the contract shard.SpawnWorkers scrapes — and
// everything else goes to stderr.
func runShardServe(ctx context.Context, args []string) error {
	fs := newFlagSet("shard serve")
	listen := fs.String("listen", "127.0.0.1:0", "serve the worker protocol and telemetry on this address (:0 picks a free port)")
	workers := fs.Int("workers", 0, "concurrent analysis workers per run (0 = GOMAXPROCS)")
	cacheDir := fs.String("cache-dir", "", "worker-local content-addressed cache directory (empty: in-memory only)")
	runlogDir := fs.String("runlog-dir", "", "seal one shard manifest per run into this ledger directory")
	logLevel := fs.String("log-level", "", "structured logs on stderr at this level (debug, info, warn, error)")
	if ok, err := parseFlags(fs, args); !ok {
		return err
	}
	oopts := obs.Options{}
	if *logLevel != "" {
		level, err := parseLogLevel(*logLevel)
		if err != nil {
			return err
		}
		oopts.LogWriter = os.Stderr
		oopts.LogLevel = level
	}
	o := obs.New(oopts)
	reg := o.Metrics()
	obs.RegisterProcMetrics(reg)

	c, err := cache.New(cache.Options{Dir: *cacheDir, Obs: o})
	if err != nil {
		return err
	}

	worker := &shard.Worker{Cache: c, Obs: o, Workers: *workers, LedgerDir: *runlogDir}
	handlers := map[string]http.Handler{"/shard/run": worker.Handler()}
	if *runlogDir != "" {
		h := runlog.Handler(*runlogDir)
		handlers["/runs"] = h
		handlers["/runs/"] = h
	}
	srv, err := obs.Serve(obs.ServeOptions{
		Addr:     *listen,
		Registry: reg,
		Logger:   o.Logger(),
		Handlers: handlers,
	})
	if err != nil {
		return err
	}
	srv.SetReady(true)
	// The base URL is the worker's one-line stdout banner; the spawner
	// (and scripts) scrape it verbatim.
	fmt.Println(srv.URL())
	fmt.Fprintf(os.Stderr, "shard worker serving at %s (%s); ctrl-c to stop\n",
		srv.URL(), workersLabel(*workers))
	<-ctx.Done()
	srv.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(sctx)
}

// coordinateStudy runs a scaled-out study: spawn (or address)
// one worker per shard, serve this run's cache to them as a remote
// tier, fan the partition requests out, fold the partial figures in
// shard order and render the combined artifacts — byte-identical to the
// single-process run.
func coordinateStudy(ctx context.Context, p *pipeline, seed int64, perTaxon int, dialect string, shards int, addrsFlag, csvPath, outDir string) error {
	// One trace spans the coordinator and every worker: each shard
	// request carries a child traceparent, so shard manifests and access
	// logs all join this id.
	tc, ok := obs.TraceContextFrom(ctx)
	if !ok || !tc.Valid() {
		tc = obs.NewTraceContext()
		ctx = obs.WithTraceContext(ctx, tc)
	}

	var addrs []string
	if addrsFlag != "" {
		for _, a := range strings.Split(addrsFlag, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) != shards {
			return fmt.Errorf("-shards %d but %d worker addresses", shards, len(addrs))
		}
	} else {
		extra := []string{"-workers", fmt.Sprint(p.exec.Workers)}
		if p.ledger != "" {
			extra = append(extra, "-runlog-dir", p.ledger)
		}
		spawned, stop, err := shard.SpawnWorkers(ctx, shards, extra, os.Stderr)
		if err != nil {
			return err
		}
		defer stop()
		addrs = spawned
	}

	// Serve this run's cache to the workers as their remote tier. The
	// telemetry server (when listening) already mounts /api/v1/cache;
	// otherwise a loopback-only tier server exists for the run's duration.
	var cacheURL string
	if p.cache != nil {
		if p.server != nil {
			cacheURL = p.server.URL() + obs.APIPrefix + "/cache"
		} else {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			tierSrv := &http.Server{Handler: cache.TierHandler(p.cache)}
			go tierSrv.Serve(ln) //nolint:errcheck // closed on return
			defer tierSrv.Close()
			cacheURL = "http://" + ln.Addr().String() + obs.APIPrefix + "/cache"
		}
	}

	req := shard.RunRequest{
		Seed: seed, PerTaxon: perTaxon, Dialect: dialect,
		Of: shards, CSV: csvPath != "", CacheURL: cacheURL,
	}
	rctx, span := p.obs.StartSpan(ctx, "run")
	span.SetArg("shards", fmt.Sprint(shards))
	res, err := shard.Run(rctx, addrs, req)
	span.End()
	p.recordSharded(res, shards)
	if err != nil {
		return err
	}
	if err := reportFailures(res.Projects, res.Failures); err != nil {
		return err
	}
	fmt.Printf("analyzed %d projects across %d shards\n\n", res.Projects, shards)

	if err := renderStudySections(report.FiguresArtifacts(res.Figures, seed), outDir); err != nil {
		return err
	}
	if csvPath != "" {
		if err := writeFile(csvPath, res.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("wrote data set to %s\n", csvPath)
	}
	return nil
}
