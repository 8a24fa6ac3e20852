package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// startTestServer boots a server on a free port and tears it down with
// the test.
func startTestServer(t *testing.T, opts ServeOptions) *Server {
	t.Helper()
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	s, err := Serve(opts)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// get fetches a path and returns status and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("coevo_engine_tasks_total", "Tasks.").Add(7)
	extra := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ledger here")
	})
	s := startTestServer(t, ServeOptions{
		Registry: reg,
		Handlers: map[string]http.Handler{"/runs": extra},
	})

	if code, body := get(t, s.URL()+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	// Readiness flips with SetReady — the corpus-loaded transition.
	if code, _ := get(t, s.URL()+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz before ready = %d, want 503", code)
	}
	s.SetReady(true)
	if code, body := get(t, s.URL()+"/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Errorf("/readyz after ready = %d %q", code, body)
	}

	resp, err := http.Get(s.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(string(raw), "coevo_engine_tasks_total 7") {
		t.Errorf("/metrics missing registry series:\n%s", raw)
	}
	if !strings.Contains(string(raw), "coevo_obs_sse_clients 0") {
		t.Errorf("/metrics missing the SSE client gauge:\n%s", raw)
	}

	if code, body := get(t, s.URL()+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "profiles") {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, body := get(t, s.URL()+"/runs"); code != http.StatusOK || body != "ledger here" {
		t.Errorf("/runs = %d %q", code, body)
	}
	if code, body := get(t, s.URL()+"/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index = %d %q", code, body)
	}
	if code, _ := get(t, s.URL()+"/definitely-not-a-route"); code != http.StatusNotFound {
		t.Errorf("unknown route = %d, want 404", code)
	}
}

// TestAPIVersionedAliases asserts every route is mounted under /api/v1
// with the prefix stripped before path-parsing handlers see the URL, and
// that the legacy unversioned paths answer identically.
func TestAPIVersionedAliases(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("coevo_engine_tasks_total", "Tasks.").Add(3)
	extra := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Echo the path the handler observed: the versioned mount must
		// deliver the same legacy shape ("/runs/...") after stripping.
		fmt.Fprint(w, "path="+r.URL.Path)
	})
	s := startTestServer(t, ServeOptions{
		Registry: reg,
		Handlers: map[string]http.Handler{"/runs": extra, "/runs/": extra},
	})
	s.SetReady(true)

	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		legacyCode, legacyBody := get(t, s.URL()+path)
		v1Code, v1Body := get(t, s.URL()+APIPrefix+path)
		if v1Code != legacyCode || v1Body != legacyBody {
			t.Errorf("%s: versioned (%d, %q) != legacy (%d, %q)", path, v1Code, v1Body, legacyCode, legacyBody)
		}
	}
	if code, body := get(t, s.URL()+APIPrefix+"/runs/abc"); code != http.StatusOK || body != "path=/runs/abc" {
		t.Errorf("%s/runs/abc = %d %q, want the stripped legacy path", APIPrefix, code, body)
	}
	if code, _ := get(t, s.URL()+APIPrefix+"/nope"); code != http.StatusNotFound {
		t.Errorf("%s/nope = %d, want 404", APIPrefix, code)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE consumes the /progress stream until the connection closes or n
// events arrived, whichever is first.
func readSSE(t *testing.T, body io.Reader, n int) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.data != "":
			events = append(events, cur)
			cur = sseEvent{}
			if len(events) >= n {
				return events
			}
		}
	}
	return events
}

func TestProgressSSE(t *testing.T) {
	s := startTestServer(t, ServeOptions{Registry: NewRegistry()})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", s.URL()+"/progress", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	// Wait until the hub sees the subscriber, then publish through the
	// public API, including an unmarshallable payload that must be
	// dropped without wedging the stream.
	deadline := time.Now().Add(5 * time.Second)
	for s.hub.clientCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Publish("project", map[string]any{"name": "p-001", "done": 1, "total": 2})
	s.Publish("broken", func() {}) // not marshallable: dropped
	s.Publish("snapshot", map[string]any{"p50_ms": 1.5})

	events := readSSE(t, resp.Body, 2)
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2: %+v", len(events), events)
	}
	if events[0].name != "project" || events[1].name != "snapshot" {
		t.Errorf("event order = %q, %q", events[0].name, events[1].name)
	}
	var payload struct {
		Name string `json:"name"`
		Done int    `json:"done"`
	}
	if err := json.Unmarshal([]byte(events[0].data), &payload); err != nil || payload.Name != "p-001" || payload.Done != 1 {
		t.Errorf("project payload = %q (%v)", events[0].data, err)
	}

	// Shutdown closes the stream: the body drains to EOF rather than
	// hanging, and later publishes are no-ops.
	done := make(chan struct{})
	go func() {
		defer close(done)
		io.Copy(io.Discard, resp.Body)
	}()
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream did not close on shutdown")
	}
	s.Publish("late", map[string]int{"x": 1}) // must not panic
}

// TestSSESlowClientDoesNotBlock floods the hub far past the client
// buffer without reading: publish must stay non-blocking and drop the
// overflow.
func TestSSESlowClientDoesNotBlock(t *testing.T) {
	hub := newSSEHub()
	_, ch, ok := hub.subscribe()
	if !ok {
		t.Fatal("subscribe failed")
	}
	donePublishing := make(chan struct{})
	go func() {
		defer close(donePublishing)
		for i := 0; i < clientBuffer*4; i++ {
			hub.publish("e", []byte(`{}`))
		}
	}()
	select {
	case <-donePublishing:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a slow client")
	}
	if got := len(ch); got != clientBuffer {
		t.Errorf("buffered %d events, want full buffer %d", got, clientBuffer)
	}
	hub.close()
}

// TestHubConcurrent subscribes, publishes and unsubscribes from many
// goroutines; run under -race by make verify.
func TestHubConcurrent(t *testing.T) {
	hub := newSSEHub()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id, ch, ok := hub.subscribe()
				if !ok {
					return
				}
				hub.publish("e", []byte(`1`))
				select {
				case <-ch:
				default:
				}
				hub.unsubscribe(id)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			hub.publish("e", []byte(`2`))
		}
	}()
	wg.Wait()
	hub.close()
	hub.close() // idempotent
	if _, _, ok := hub.subscribe(); ok {
		t.Error("subscribe after close should fail")
	}
}

// TestShutdownClosesUnusedConnections: clients dial connections ahead
// of need (net/http's transport keeps one when a pooled connection frees
// first) and may never send on them. net/http's Shutdown waits on such a
// connection for five seconds, which made a finished run fail its
// five-second shutdown; the server must close it instead.
func TestShutdownClosesUnusedConnections(t *testing.T) {
	s := startTestServer(t, ServeOptions{Registry: NewRegistry()})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The server accepts in order, so once a later request is answered
	// the unused connection is open on its side.
	if code, _ := get(t, s.URL()+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with an unused connection open: %v", err)
	}
}

func TestNilServerIsSafe(t *testing.T) {
	var s *Server
	if s.Addr() != "" || s.URL() != "" {
		t.Error("nil server should report empty addresses")
	}
	s.SetReady(true)
	s.Publish("event", map[string]int{"x": 1})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("nil shutdown: %v", err)
	}
}

// TestReadyzFlipsOnDrain exercises the drain transition against the
// real handler chain via httptest: ready serves 200, and the moment
// BeginDrain is called — before any listener closes — /readyz answers
// 503 so load balancers stop routing.
func TestReadyzFlipsOnDrain(t *testing.T) {
	s := newServer(ServeOptions{Registry: NewRegistry()})
	ts := httptest.NewServer(s.srv.Handler)
	defer ts.Close()

	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz before ready = %d, want 503", code)
	}
	s.SetReady(true)
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Errorf("/readyz ready = %d %q", code, body)
	}

	s.BeginDrain()
	code, body := get(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("/readyz draining = %d %q, want 503 draining", code, body)
	}
	// Draining wins even while ready is still set, and on the versioned
	// mount too; liveness keeps answering 200 throughout the drain.
	if code, _ := get(t, ts.URL+APIPrefix+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("%s/readyz draining = %d, want 503", APIPrefix, code)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz during drain = %d, want 200", code)
	}
	s.BeginDrain() // idempotent
}

// TestInstrumentTraceparent asserts the middleware accepts a valid
// incoming traceparent (same trace id through the request context and
// the response header) and mints one otherwise.
func TestInstrumentTraceparent(t *testing.T) {
	const trace = "4bf92f3577b34da6a3ce929d0e0e4736"
	var seenTraceID string
	echo := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seenTraceID = TraceIDFrom(r.Context())
	})
	flight := NewFlightRecorder(64)
	red := NewRED(NewRegistry(), nil)
	s := newServer(ServeOptions{
		Registry: NewRegistry(),
		Handlers: map[string]http.Handler{"/runs": echo},
		Tenant:   func(r *http.Request) string { return r.Header.Get("X-Coevo-Tenant") },
		RED:      red,
		Flight:   flight,
	})
	ts := httptest.NewServer(s.srv.Handler)
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/runs", nil)
	req.Header.Set("traceparent", "00-"+trace+"-00f067aa0ba902b7-01")
	req.Header.Set("X-Coevo-Tenant", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if seenTraceID != trace {
		t.Errorf("handler saw trace id %q, want %q", seenTraceID, trace)
	}
	echoed, ok := ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok || echoed.TraceID != trace {
		t.Errorf("response traceparent = %q, want trace %s", resp.Header.Get("traceparent"), trace)
	}

	// No (or malformed) header: a fresh valid trace is minted.
	req2, _ := http.NewRequest("GET", ts.URL+"/runs", nil)
	req2.Header.Set("traceparent", "not-a-traceparent")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	minted, ok := ParseTraceparent(resp2.Header.Get("traceparent"))
	if !ok || minted.TraceID == trace {
		t.Errorf("minted traceparent = %q", resp2.Header.Get("traceparent"))
	}
	if seenTraceID != minted.TraceID {
		t.Errorf("handler saw %q, response says %q", seenTraceID, minted.TraceID)
	}

	// RED observed the tenant; no 5xx happened, so the flight ring stays
	// free of request-failed events.
	snap := red.Snapshot()
	if snap.Requests < 2 {
		t.Errorf("RED window = %+v, want >= 2 requests", snap)
	}
	found := false
	for _, tr := range snap.Tenants {
		if tr.Tenant == "alice" {
			found = true
		}
	}
	if !found {
		t.Errorf("RED snapshot missing tenant alice: %+v", snap.Tenants)
	}
	if evs := flight.Correlated(trace, ""); len(evs) != 0 {
		t.Errorf("2xx request left flight events: %+v", evs)
	}
}

// TestInstrumentRecordsServerErrors asserts a 5xx response lands in the
// flight ring, correlated by the request's trace id.
func TestInstrumentRecordsServerErrors(t *testing.T) {
	const trace = "aaaabbbbccccddddeeeeffff00001111"
	boom := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	flight := NewFlightRecorder(64)
	s := newServer(ServeOptions{
		Registry: NewRegistry(),
		Handlers: map[string]http.Handler{"/runs": boom},
		Flight:   flight,
	})
	ts := httptest.NewServer(s.srv.Handler)
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/runs", nil)
	req.Header.Set("traceparent", "00-"+trace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	evs := flight.Correlated(trace, "")
	if len(evs) != 1 || evs[0].Source != "http" || evs[0].Kind != "request-failed" {
		t.Fatalf("flight events for failed request = %+v, want one http/request-failed", evs)
	}
}

func TestRouteLabel(t *testing.T) {
	cases := map[string]string{
		"/":                          "/",
		"/healthz":                   "/healthz",
		"/metrics":                   "/metrics",
		"/status":                    "/status",
		"/jobs":                      "/jobs",
		"/jobs/abc123":               "/jobs/{id}",
		"/jobs/abc123/result":        "/jobs/{id}/result",
		"/jobs/abc123/events":        "/jobs/{id}/events",
		"/jobs/abc123/cancel":        "/jobs/{id}/cancel",
		"/jobs/abc123/flight":        "/jobs/{id}/flight",
		"/jobs/abc123/nonsense":      overflowLabel,
		"/runs":                      "/runs",
		"/runs/2024-01-01T00":        "/runs/{id}",
		"/debug/pprof/":              "/debug/pprof",
		"/debug/pprof/heap":          "/debug/pprof",
		"/anything/else":             overflowLabel,
		APIPrefix + "/jobs/x/result": "/jobs/{id}/result",
		APIPrefix + "/status":        "/status",
		APIPrefix:                    "/",
	}
	for path, want := range cases {
		if got := routeLabel(path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}
