package shard

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coevo/internal/obs"
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
	w := &Worker{}
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
