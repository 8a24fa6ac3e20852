package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coevo/internal/cache"
	"coevo/internal/runlog"
	"coevo/internal/study"
)

// getBody fetches url and returns status code and body.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// sseCapture is what a /progress client saw before the stream closed.
type sseCapture struct {
	projects  int
	snapshots int
	sample    string // one project event's data payload
}

// watchProgress subscribes to /progress and drains the stream until the
// server closes it (end of run), reporting what arrived.
func watchProgress(t *testing.T, url string) <-chan sseCapture {
	t.Helper()
	resp, err := http.Get(url + "/progress")
	if err != nil {
		t.Fatalf("GET /progress: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/progress Content-Type = %q", ct)
	}
	out := make(chan sseCapture, 1)
	go func() {
		defer resp.Body.Close()
		var cap sseCapture
		var event string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				switch event {
				case "project":
					cap.projects++
					if cap.sample == "" {
						cap.sample = strings.TrimPrefix(line, "data: ")
					}
				case "snapshot", "done":
					cap.snapshots++
				}
			}
		}
		out <- cap
	}()
	return out
}

// TestTelemetryDuringStudy drives the full -listen/-runlog-dir surface
// around a small corpus study: liveness before readiness, the readiness
// flip once analysis starts, live /metrics and /runs, SSE progress
// events, and the sealed ledger entry after finish.
func TestTelemetryDuringStudy(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "runs")
	fs := newFlagSet("study")
	builder := pipelineFlags(fs, true)
	if ok, err := parseFlags(fs, []string{
		"-listen", "127.0.0.1:0", "-runlog-dir", ledger, "-workers", "2"}); !ok {
		t.Fatalf("parse: %v", err)
	}
	p, err := builder()
	if err != nil {
		t.Fatalf("build pipeline: %v", err)
	}
	if p.server == nil || p.manifest == nil || p.metrics == nil {
		t.Fatalf("telemetry pipeline incomplete: %+v", p)
	}
	url := p.server.URL()

	if code, body := getBody(t, url+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := getBody(t, url+"/readyz"); code != 503 || !strings.Contains(body, "not ready") {
		t.Errorf("/readyz before run = %d %q, want 503", code, body)
	}
	if code, body := getBody(t, url+"/runs"); code != 200 || strings.TrimSpace(body) != "[]" {
		t.Errorf("/runs before any run = %d %q, want empty list", code, body)
	}

	captured := watchProgress(t, url)

	opts := study.DefaultOptions()
	opts.Exec = p.exec
	opts.Cache = p.cache
	opts.Obs = p.obs
	d, err := study.AnalyzeCorpusContext(context.Background(), smallProjects(t), opts)
	if err != nil {
		t.Fatalf("study: %v", err)
	}

	if code, body := getBody(t, url+"/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Errorf("/readyz after run = %d %q, want ready", code, body)
	}
	code, metrics := getBody(t, url+"/metrics")
	if code != 200 || !strings.Contains(metrics, `coevo_engine_tasks_total{run="analyze"}`) {
		t.Errorf("/metrics = %d, missing engine series:\n%.400s", code, metrics)
	}
	if !strings.Contains(metrics, "coevo_obs_sse_clients 1") {
		t.Errorf("/metrics does not count the connected SSE client:\n%.400s", metrics)
	}
	if code, body := getBody(t, url+"/"); code != 200 || !strings.Contains(body, "/runs") {
		t.Errorf("index = %d %q, want endpoint listing with /runs", code, body)
	}

	p.recordRun(d.Size(), d.Failures)
	if err := p.finish(context.Background(), nil); err != nil {
		t.Fatalf("finish: %v", err)
	}

	// Shutdown closed the SSE stream; the client must have seen the run.
	select {
	case cap := <-captured:
		if cap.projects < d.Size() {
			t.Errorf("SSE client saw %d project events, want >= %d", cap.projects, d.Size())
		}
		if cap.snapshots == 0 {
			t.Error("SSE client saw no snapshot/done events")
		}
		for _, want := range []string{`"scope":"analyze"`, `"name"`, `"done"`} {
			if !strings.Contains(cap.sample, want) {
				t.Errorf("project event payload missing %s: %s", want, cap.sample)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream did not close on shutdown")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("server still reachable after finish")
	}

	// The ledger holds exactly this run, sealed with outcome and metrics.
	runs, err := runlog.List(ledger)
	if err != nil || len(runs) != 1 {
		t.Fatalf("ledger = %v, %v; want 1 run", runs, err)
	}
	m := runs[0]
	if m.Command != "study" || m.Outcome != "ok" || m.Projects != d.Size() {
		t.Errorf("manifest = %+v", m)
	}
	if m.Options["listen"] != "127.0.0.1:0" || m.Options["workers"] != "2" {
		t.Errorf("manifest options = %v", m.Options)
	}
	if m.Workers != 2 || m.P95Seconds <= 0 || len(m.StageSeconds) == 0 || len(m.Metrics) == 0 {
		t.Errorf("manifest summary not filled: %+v", m)
	}
}

// TestLingerKeepsServerUp checks -linger: after the run, the telemetry
// server stays scrapeable for the linger window and /runs already serves
// the sealed manifest.
func TestLingerKeepsServerUp(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "runs")
	fs := newFlagSet("study")
	builder := pipelineFlags(fs, true)
	if ok, err := parseFlags(fs, []string{
		"-listen", "127.0.0.1:0", "-runlog-dir", ledger, "-linger", "30s"}); !ok {
		t.Fatalf("parse: %v", err)
	}
	p, err := builder()
	if err != nil {
		t.Fatalf("build pipeline: %v", err)
	}
	url := p.server.URL()
	p.recordRun(6, nil)

	ctx, cancel := context.WithCancel(context.Background())
	finished := make(chan error, 1)
	go func() { finished <- p.finish(ctx, nil) }()

	// While lingering, the ledger entry is already served.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := getBody(t, url+"/runs")
		if code == 200 && strings.Contains(body, `"command": "study"`) &&
			strings.Contains(body, `"outcome": "ok"`) && strings.Contains(body, `"projects": 6`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/runs never served the sealed manifest: %d %q", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case err := <-finished:
		t.Fatalf("finish returned during linger: %v", err)
	default:
	}
	cancel() // ctrl-c equivalent: cut the linger short
	select {
	case err := <-finished:
		if err != nil {
			t.Fatalf("finish after cancelled linger: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("finish did not return after cancellation")
	}
}

// ledgerPair writes two manifests into dir, the second carrying an
// injected latency and cache regression, and returns their ids.
func ledgerPair(t *testing.T, dir string) (string, string) {
	t.Helper()
	base := time.Date(2026, 8, 5, 9, 0, 0, 0, time.UTC)
	mk := func(id string, start time.Time, p95, hitRate float64) *runlog.Manifest {
		m := runlog.NewManifest("study", start)
		m.ID = id
		m.Finish(start.Add(2*time.Second), nil)
		m.Projects = 195
		m.P95Seconds = p95
		m.Cache = &cache.Stats{Hits: int64(1000 * hitRate), Misses: int64(1000 * (1 - hitRate))}
		return m
	}
	a := mk("20260805T090000-aaaa", base, 0.050, 0.90)
	b := mk("20260805T100000-bbbb", base.Add(time.Hour), 0.150, 0.40)
	for _, m := range []*runlog.Manifest{a, b} {
		if _, err := runlog.Write(dir, m); err != nil {
			t.Fatal(err)
		}
	}
	return a.ID, b.ID
}

// TestRunsSubcommand drives coevo runs list/show/diff against a ledger
// with an injected regression.
func TestRunsSubcommand(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	oldID, newID := ledgerPair(t, dir)

	for _, args := range [][]string{
		{"-runlog-dir", dir, "list"},
		{"-runlog-dir", dir, "show"},
		{"-runlog-dir", dir, "show", oldID},
	} {
		if err := runRuns(args); err != nil {
			t.Errorf("runs %v: %v", args, err)
		}
	}

	// The injected p95 and hit-rate regressions must fail the diff.
	err := runRuns([]string{"-runlog-dir", dir, "diff", oldID, newID})
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Errorf("diff with injected regression = %v, want regression error", err)
	}
	// Same pair via the previous/latest defaults.
	if err := runRuns([]string{"-runlog-dir", dir, "diff"}); err == nil {
		t.Error("default diff (previous vs latest) missed the regression")
	}
	// Reversed, the movement is an improvement: no error.
	if err := runRuns([]string{"-runlog-dir", dir, "diff", newID, oldID}); err != nil {
		t.Errorf("improvement flagged as regression: %v", err)
	}

	if err := runRuns([]string{"-runlog-dir", dir}); err == nil {
		t.Error("missing operation should fail")
	}
	if err := runRuns([]string{"-runlog-dir", dir, "frobnicate"}); err == nil {
		t.Error("unknown operation should fail")
	}
	if err := runRuns([]string{"-runlog-dir", dir, "show", "no-such-run"}); err == nil {
		t.Error("unknown run id should fail")
	}
}

// TestServeSubcommand checks the standalone server starts and shuts down
// cleanly on context cancellation.
func TestServeSubcommand(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- runServe(ctx, []string{"-listen", "127.0.0.1:0",
			"-runlog-dir", filepath.Join(t.TempDir(), "runs"), "-log-level", "error"})
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not stop on cancellation")
	}

	if err := runServe(ctx, []string{"-log-level", "loud"}); err == nil {
		t.Error("invalid -log-level should fail")
	}
	if err := runServe(ctx, []string{"-listen", "256.0.0.1:bad"}); err == nil {
		t.Error("unbindable address should fail")
	}
}

// TestTelemetryFlagKitErrors covers the flag kit's new failure paths.
func TestTelemetryFlagKitErrors(t *testing.T) {
	fs := newFlagSet("study")
	builder := pipelineFlags(fs, true)
	if ok, err := parseFlags(fs, []string{"-listen", "256.0.0.1:bad"}); !ok {
		t.Fatalf("parse: %v", err)
	}
	if _, err := builder(); err == nil {
		t.Error("unbindable -listen should fail the build")
	}
}

// TestConcurrentMetricsScrapeDuringStudy hammers /metrics from several
// scrapers while a study is live, the way a Prometheus pair plus an
// impatient operator would. Every scrape must serve a complete, valid
// exposition; run under -race by make verify, this also proves the
// registry and the engine's metric writes don't tear.
func TestConcurrentMetricsScrapeDuringStudy(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "runs")
	fs := newFlagSet("study")
	builder := pipelineFlags(fs, true)
	if ok, err := parseFlags(fs, []string{
		"-listen", "127.0.0.1:0", "-runlog-dir", ledger, "-workers", "2"}); !ok {
		t.Fatalf("parse: %v", err)
	}
	p, err := builder()
	if err != nil {
		t.Fatalf("build pipeline: %v", err)
	}
	url := p.server.URL()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scrapes atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, body := getBody(t, url+"/metrics")
				if code != 200 {
					t.Errorf("/metrics mid-study = %d", code)
					return
				}
				// A torn write would show as a truncated exposition; every
				// scrape must end in a newline and carry the process gauges.
				if !strings.HasSuffix(body, "\n") || !strings.Contains(body, "coevo_proc_heap_alloc_bytes") {
					t.Errorf("scrape looks torn:\n%.200s", body)
					return
				}
				scrapes.Add(1)
			}
		}()
	}

	opts := study.DefaultOptions()
	opts.Exec = p.exec
	opts.Cache = p.cache
	opts.Obs = p.obs
	d, err := study.AnalyzeCorpusContext(context.Background(), smallProjects(t), opts)
	if err != nil {
		t.Fatalf("study: %v", err)
	}
	close(stop)
	wg.Wait()
	if scrapes.Load() == 0 {
		t.Fatal("no scrape completed during the study")
	}

	// The post-run scrape serves the engine's final counters.
	if _, body := getBody(t, url+"/metrics"); !strings.Contains(body, `coevo_engine_tasks_total{run="analyze"}`) {
		t.Errorf("final scrape missing engine series:\n%.300s", body)
	}
	p.recordRun(d.Size(), d.Failures)
	if err := p.finish(context.Background(), nil); err != nil {
		t.Fatalf("finish: %v", err)
	}
}
