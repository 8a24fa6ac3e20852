package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coevo/internal/cache"
	"coevo/internal/obs"
	"coevo/internal/runlog"
	"coevo/internal/study"
)

// traceMiddleware mimics obs.Serve's instrument middleware for tests:
// an incoming traceparent becomes the request's TraceContext.
func traceMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tc, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
			r = r.WithContext(obs.WithTraceContext(r.Context(), tc))
		}
		next.ServeHTTP(w, r)
	})
}

// newWorkerServer mounts a fresh worker on an httptest server at the
// versioned route only, with obs.Serve's trace propagation, so a client
// still on the legacy /shard/run alias fails.
func newWorkerServer(t *testing.T) *httptest.Server {
	t.Helper()
	return serveWorker(t, &Worker{})
}

// serveWorker mounts w the way newWorkerServer mounts a fresh worker.
func serveWorker(t *testing.T, w *Worker) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle(obs.APIPrefix+"/shard/run", traceMiddleware(w.Handler()))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestShardedRunMatchesSingleShard: coordinating three workers over HTTP
// produces byte-identical figures and CSV to the same protocol run as
// one shard — the merge is exact, not approximate.
func TestShardedRunMatchesSingleShard(t *testing.T) {
	const seed, perTaxon = int64(11), 2
	ctx := context.Background()

	// Reference: the whole corpus as a single partition.
	ref, err := (&Worker{}).Run(ctx, &RunRequest{Seed: seed, PerTaxon: perTaxon, Shard: 0, Of: 1, CSV: true})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i] = newWorkerServer(t).URL
	}
	res, err := Run(ctx, addrs, RunRequest{Seed: seed, PerTaxon: perTaxon, CSV: true})
	if err != nil {
		t.Fatalf("sharded run: %v", err)
	}

	if res.Projects != ref.Projects {
		t.Fatalf("projects = %d, want %d", res.Projects, ref.Projects)
	}
	if got := res.Figures.EncodePartial(); !bytes.Equal(got, ref.Figures) {
		t.Fatal("merged figures diverge from the single-shard run")
	}

	var merged bytes.Buffer
	if err := res.WriteCSV(&merged); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	var want strings.Builder
	want.WriteString(CSVHeader())
	for _, row := range ref.CSV {
		want.WriteString(row.Line)
	}
	if merged.String() != want.String() {
		t.Fatal("merged CSV diverges from the single-shard run")
	}

	// One trace spans the fan-out: every shard echoes the coordinator's
	// trace id, and the bookkeeping covers every shard in order.
	if len(res.Shards) != 3 {
		t.Fatalf("shard runs = %d, want 3", len(res.Shards))
	}
	for i, sr := range res.Shards {
		if sr.Shard != i {
			t.Errorf("shard run %d records shard %d", i, sr.Shard)
		}
		if sr.TraceID != res.TraceID {
			t.Errorf("shard %d trace id %q, want %q", i, sr.TraceID, res.TraceID)
		}
	}
}

// TestCorruptRemoteTierLeavesStudyIdentical: a remote tier that flips
// the last byte of every value it serves cannot change a sharded study.
// Such a value still decodes (a DDL path, a parse-health count), so
// without its digest it would change the figures silently. The tier
// holds every entry of a cold run, each one fails its digest, and the
// workers recompute: figures and CSV equal the uncached reference, and
// no value from the tier is served.
func TestCorruptRemoteTierLeavesStudyIdentical(t *testing.T) {
	const seed, perTaxon = int64(11), 1
	ctx := context.Background()
	ref, err := (&Worker{}).Run(ctx, &RunRequest{Seed: seed, PerTaxon: perTaxon, Shard: 0, Of: 1, CSV: true})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	origin := cache.NewMemory()
	if _, err := (&Worker{Cache: origin}).Run(ctx, &RunRequest{Seed: seed, PerTaxon: perTaxon, Shard: 0, Of: 1}); err != nil {
		t.Fatalf("cold fill: %v", err)
	}
	tierHandler := cache.TierHandler(origin)
	tier := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		tierHandler.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.Method == http.MethodGet && len(body) > 0 {
			body[len(body)-1] ^= 0x01
		}
		maps.Copy(w.Header(), rec.Header())
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	defer tier.Close()

	addrs := []string{newWorkerServer(t).URL, newWorkerServer(t).URL}
	res, err := Run(ctx, addrs, RunRequest{Seed: seed, PerTaxon: perTaxon, CSV: true, CacheURL: tier.URL})
	if err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	if got := res.Figures.EncodePartial(); !bytes.Equal(got, ref.Figures) {
		t.Error("figures over a corrupting tier diverge from the uncached reference")
	}
	var merged bytes.Buffer
	if err := res.WriteCSV(&merged); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	var want strings.Builder
	want.WriteString(CSVHeader())
	for _, row := range ref.CSV {
		want.WriteString(row.Line)
	}
	if merged.String() != want.String() {
		t.Error("CSV over a corrupting tier diverges from the uncached reference")
	}
	if s := res.Cache; s == nil || s.RemoteHits != 0 || s.RemoteCorrupt == 0 || s.RemoteCorrupt > s.RemoteMisses {
		t.Errorf("merged cache counters = %+v; want rejected remote values and no remote hit", s)
	}
}

// TestMergedCacheCountsEveryCounter runs three workers whose memory and
// disk caches already served one study: the merged Result.Cache, and its
// JSON, must be the sum of the workers' deltas for the second study —
// every counter, the per-tier misses included.
func TestMergedCacheCountsEveryCounter(t *testing.T) {
	ctx := context.Background()
	caches := make([]*cache.Cache, 3)
	addrs := make([]string, len(caches))
	for i := range caches {
		c, err := cache.New(cache.Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		caches[i] = c
		addrs[i] = serveWorker(t, &Worker{Cache: c}).URL
	}
	total := func() (s cache.Stats) {
		for _, c := range caches {
			s = s.Add(c.Stats())
		}
		return s
	}
	if _, err := Run(ctx, addrs, RunRequest{Seed: 11, PerTaxon: 1}); err != nil {
		t.Fatalf("first run: %v", err)
	}
	before := total()
	res, err := Run(ctx, addrs, RunRequest{Seed: 12, PerTaxon: 1})
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	want := total().Sub(before)
	if want.MemoryMisses == 0 || want.DiskMisses == 0 {
		t.Fatalf("the second run missed no tier: %#v", want)
	}
	if res.Cache == nil || *res.Cache != want {
		t.Fatalf("merged cache = %#v, want the summed worker deltas %#v", res.Cache, want)
	}
	raw, err := json.Marshal(res.Cache)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		fmt.Sprintf(`"memory_misses":%d`, want.MemoryMisses),
		fmt.Sprintf(`"disk_misses":%d`, want.DiskMisses),
	} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("merged cache JSON lacks %s: %s", field, raw)
		}
	}
}

// TestShardManifestRecordsLatencies: a worker with a ledger seals each
// shard run with the engine's latency summary, so `runs diff` of two
// shard manifests compares latencies as well as stage seconds.
func TestShardManifestRecordsLatencies(t *testing.T) {
	dir := t.TempDir()
	resp, err := (&Worker{LedgerDir: dir}).Run(context.Background(), &RunRequest{Seed: 11, PerTaxon: 2, Shard: 0, Of: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := runlog.Load(dir, resp.ManifestID)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"p50_seconds":        m.P50Seconds,
		"p95_seconds":        m.P95Seconds,
		"max_seconds":        m.MaxSeconds,
		"throughput_per_sec": m.ThroughputPerSec,
	} {
		if v <= 0 {
			t.Errorf("shard manifest %s = %v, want > 0", name, v)
		}
	}
	if len(m.StageSeconds) == 0 {
		t.Error("shard manifest has no stage seconds")
	}
}

// TestWorkerRejectsBadRequests pins the handler's error mapping.
func TestWorkerRejectsBadRequests(t *testing.T) {
	srv := newWorkerServer(t)
	post := func(body string) int {
		resp, err := http.Post(srv.URL+obs.APIPrefix+"/shard/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"seed":1,"shard":3,"of":3}`); code != http.StatusBadRequest {
		t.Errorf("out-of-range shard = %d, want 400", code)
	}
	if code := post(`{"seed":1,"shard":0,"of":0}`); code != http.StatusBadRequest {
		t.Errorf("zero shard count = %d, want 400", code)
	}
	if code := post(`{"seed":1,"shard":0,"of":1,"dialect":"nope"}`); code != http.StatusBadRequest {
		t.Errorf("unknown dialect = %d, want 400", code)
	}
	if code := post(`not json`); code != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", code)
	}
	resp, err := http.Get(srv.URL + obs.APIPrefix + "/shard/run")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET = %d, want 405", resp.StatusCode)
	}
}

// TestRunFailsWhenAShardFails: a failed shard fails the whole run —
// a silently narrowed population is worse than no answer — and cancels
// its siblings, so Run reports the failed shard at once instead of
// waiting on a worker that runs on.
func TestRunFailsWhenAShardFails(t *testing.T) {
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The server notices that the client left only once the body
		// has been read.
		io.Copy(io.Discard, r.Body) //nolint:errcheck // drain only
		<-r.Context().Done()
	}))
	defer hung.Close()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "worker exploded", http.StatusInternalServerError)
	}))
	defer bad.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	_, err := Run(ctx, []string{hung.URL, bad.URL}, RunRequest{Seed: 3, PerTaxon: 1})
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("err = %v, want shard 1 failure", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("Run returned after %s; the failed shard did not cancel its sibling", d)
	}
}

// TestRunValidatesShape: the coordinator refuses mismatched shard
// counts and empty worker lists before any network traffic.
func TestRunValidatesShape(t *testing.T) {
	if _, err := Run(context.Background(), nil, RunRequest{Seed: 1}); err == nil {
		t.Error("no workers should fail")
	}
	if _, err := Run(context.Background(), []string{"a", "b"}, RunRequest{Seed: 1, Of: 3}); err == nil {
		t.Error("worker/shard count mismatch should fail")
	}
}

// TestPartialDecodeRejectsGarbage: a corrupted shard response fails the
// merge loudly.
func TestPartialDecodeRejectsGarbage(t *testing.T) {
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"shard":0,"projects":1,"figures":"Z2FyYmFnZQ=="}`))
	}))
	defer garbage.Close()
	_, err := Run(context.Background(), []string{garbage.URL}, RunRequest{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "decode partial") {
		t.Fatalf("err = %v, want decode failure", err)
	}
	if _, err := study.DecodePartialFigures([]byte("garbage")); err == nil {
		t.Fatal("garbage must not decode")
	}
}
