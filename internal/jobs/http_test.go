package jobs

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coevo/internal/obs"
)

// newAPI starts an httptest server over a fresh queue, mirroring how
// `coevo serve` mounts the handler.
func newAPI(t *testing.T, opts QueueOptions) (*httptest.Server, *Queue) {
	t.Helper()
	q := openQueue(t, opts)
	mux := http.NewServeMux()
	h := Handler(q)
	mux.Handle("/jobs", h)
	mux.Handle("/jobs/", h)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, q
}

// postSpec submits a spec as the given tenant and returns the response.
func postSpec(t *testing.T, srv *httptest.Server, tenant string, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Coevo-Tenant", tenant)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response) *Job {
	t.Helper()
	defer resp.Body.Close()
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return &j
}

const studyBody = `{"kind":"study","study":{"seed":7,"per_taxon":1}}`

// TestHTTPSubmitStatusResult drives the happy path entirely over HTTP:
// submit, poll to done, fetch the result.
func TestHTTPSubmitStatusResult(t *testing.T) {
	srv, _ := newAPI(t, QueueOptions{Exec: okExec(t)})
	resp := postSpec(t, srv, "alice", studyBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/api/v1/jobs/j-") {
		t.Errorf("Location = %q", loc)
	}
	j := decodeJob(t, resp)
	if j.Tenant != "alice" {
		t.Errorf("tenant = %q, want alice", j.Tenant)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		sresp, err := srv.Client().Get(srv.URL + "/jobs/" + j.ID)
		if err != nil {
			t.Fatalf("GET status: %v", err)
		}
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("status code = %d", sresp.StatusCode)
		}
		cur := decodeJob(t, sresp)
		if cur.State.Terminal() {
			if cur.State != StateDone {
				t.Fatalf("state = %s (err %q)", cur.State, cur.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished (state %s)", cur.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	rresp, err := srv.Client().Get(srv.URL + "/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d, want 200", rresp.StatusCode)
	}
	var res Result
	if err := json.NewDecoder(rresp.Body).Decode(&res); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if res.Sections["figure4.txt"] == "" {
		t.Errorf("result sections = %v", res.Sections)
	}

	// The listing shows the job, filtered by tenant.
	lresp, err := srv.Client().Get(srv.URL + "/jobs?tenant=alice")
	if err != nil {
		t.Fatalf("GET list: %v", err)
	}
	defer lresp.Body.Close()
	var list []*Job
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	if len(list) != 1 || list[0].ID != j.ID {
		t.Errorf("list = %+v", list)
	}
}

// TestHTTPMalformedSpec maps both broken JSON and an invalid spec to 400.
func TestHTTPMalformedSpec(t *testing.T) {
	srv, _ := newAPI(t, QueueOptions{Exec: okExec(t)})
	for _, body := range []string{
		"{not json",
		`{"kind":"study"}`,
		`{"kind":"mystery","study":{"seed":1}}`,
		`{"kind":"study","study":{"seed":1},"unknown_field":true}`,
		`{"kind":"study","study":{"seed":7,"shards":3}}`,
		`{"kind":"ingest","ingest":{"git_log":"x","ddl_versions":{"bad-date":""}}}`,
		`{"kind":"ingest","ingest":{"git_log":"x","ddl_versions":{"2016-01-10.1abc":""}}}`,
		`{"kind":"ingest","ingest":{"git_log":"x","ddl_versions":{"2016-01-10":"","2016-01-10.0":""}}}`,
	} {
		resp := postSpec(t, srv, "t", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestHTTPQuota returns 429 with Retry-After once a tenant's live jobs
// hit the quota, while another tenant still submits.
func TestHTTPQuota(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	srv, _ := newAPI(t, QueueOptions{
		Exec: blockingExec(started, release), Workers: 1, TenantMaxQueued: 1,
	})
	resp := postSpec(t, srv, "alice", studyBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	resp = postSpec(t, srv, "alice", studyBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	resp = postSpec(t, srv, "bob", studyBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("other tenant = %d, want 202", resp.StatusCode)
	}
}

// TestHTTPCancel cancels a queued job over the API.
func TestHTTPCancel(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	srv, _ := newAPI(t, QueueOptions{Exec: blockingExec(started, release), Workers: 1})
	first := decodeJob(t, postSpec(t, srv, "t", studyBody))
	<-started
	_ = first
	second := decodeJob(t, postSpec(t, srv, "t", `{"kind":"study","study":{"seed":8}}`))

	cresp, err := srv.Client().Post(srv.URL+"/jobs/"+second.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatalf("POST cancel: %v", err)
	}
	j := decodeJob(t, cresp)
	if j.State != StateCanceled {
		t.Fatalf("state after cancel = %s", j.State)
	}
}

// TestHTTPNotFoundAndConflict covers the remaining error mappings.
func TestHTTPNotFoundAndConflict(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	srv, _ := newAPI(t, QueueOptions{Exec: blockingExec(started, release)})
	resp, err := srv.Client().Get(srv.URL + "/jobs/j-nope")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id = %d, want 404", resp.StatusCode)
	}

	j := decodeJob(t, postSpec(t, srv, "t", studyBody))
	<-started
	resp, err = srv.Client().Get(srv.URL + "/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result of running job = %d, want 409", resp.StatusCode)
	}

	dresp, err := srv.Client().Head(srv.URL + "/jobs/" + j.ID)
	if err != nil {
		t.Fatalf("HEAD: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("HEAD = %d, want 405", dresp.StatusCode)
	}
}

// TestHTTPEvents reads the per-job SSE stream: preamble, then events
// through the terminal state, then EOF as the server closes the feed.
func TestHTTPEvents(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	srv, _ := newAPI(t, QueueOptions{Exec: blockingExec(started, release)})
	j := decodeJob(t, postSpec(t, srv, "t", studyBody))
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/jobs/"+j.ID+"/events", nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	close(release) // let the job finish while we stream

	var sawState bool
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		if e.JobID != j.ID {
			t.Errorf("event for %q, want %q", e.JobID, j.ID)
		}
		if e.Type == "state" && e.State.Terminal() {
			sawState = true
		}
	}
	// The server closes the stream at the terminal event, so the scan
	// ending (EOF) is itself part of the contract.
	if err := scanner.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if !sawState {
		t.Error("stream ended without a terminal state event")
	}
}

// TestHTTPTenantQueryFallback accepts ?tenant= when the header is absent.
func TestHTTPTenantQueryFallback(t *testing.T) {
	srv, q := newAPI(t, QueueOptions{Exec: okExec(t)})
	resp, err := srv.Client().Post(srv.URL+"/jobs?tenant=carol", "application/json",
		strings.NewReader(studyBody))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	j := decodeJob(t, resp)
	if j.Tenant != "carol" {
		t.Errorf("tenant = %q, want carol", j.Tenant)
	}
	got, err := q.Get(j.ID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.Tenant != "carol" {
		t.Errorf("queue sees tenant %q, want carol", got.Tenant)
	}
}

// TestHTTPFlight drives the flight-dump route: a failed job serves its
// correlated dump, a successful one 404s with a distinct message.
func TestHTTPFlight(t *testing.T) {
	o := flightObs(t)
	srv, q := newAPI(t, QueueOptions{Exec: failExec("forced"), Obs: o})
	resp := postSpec(t, srv, "alice", studyBody)
	j := decodeJob(t, resp)
	if _, err := q.Wait(waitCtx(t), j.ID); err != nil {
		t.Fatal(err)
	}
	fresp, err := http.Get(srv.URL + "/jobs/" + j.ID + "/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer fresp.Body.Close()
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("GET flight = %d", fresp.StatusCode)
	}
	var d FlightDump
	if err := json.NewDecoder(fresp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if d.JobID != j.ID || d.TraceID != j.TraceID || len(d.Events) == 0 {
		t.Errorf("dump = job %s trace %s with %d events; want job %s trace %s, non-empty",
			d.JobID, d.TraceID, len(d.Events), j.ID, j.TraceID)
	}

	// Unknown job and dump-less job both 404.
	if resp, err := http.Get(srv.URL + "/jobs/nope/flight"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("flight of unknown job = %v, %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
}

// TestHTTPSubmitStampsTrace asserts the job record returned by POST
// carries a trace id even when the client sends no traceparent (the
// serve middleware usually mints one; the queue must cope without it).
func TestHTTPSubmitStampsTrace(t *testing.T) {
	srv, _ := newAPI(t, QueueOptions{Exec: okExec(t)})
	j := decodeJob(t, postSpec(t, srv, "", studyBody))
	if j.TraceID == "" {
		t.Error("submitted job has no trace id")
	}
}

// TestStatusEndpoint exercises the /status document over HTTP.
func TestStatusEndpoint(t *testing.T) {
	o := flightObs(t)
	q := openQueue(t, QueueOptions{Exec: okExec(t), Obs: o, TenantMaxRunning: 1, TenantMaxQueued: 8})
	red := obs.NewRED(obs.NewRegistry(), nil)
	red.Observe("/jobs", "alice", 200, 0.01)
	red.Observe("/jobs", "alice", 502, 0.02)
	h := NewStatusHandler(StatusOptions{Queue: q, RED: red, Flight: o.Flight()})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	j, err := q.Submit(context.Background(), "alice", studySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(waitCtx(t), j.ID); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q", ct)
	}
	var doc ServiceStatus
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.UptimeSeconds < 0 || doc.Now.IsZero() {
		t.Errorf("uptime/now = %v / %v", doc.UptimeSeconds, doc.Now)
	}
	if doc.Jobs.Submitted != 1 || doc.Jobs.Completed != 1 {
		t.Errorf("jobs = %+v", doc.Jobs)
	}
	if doc.HTTP == nil || doc.HTTP.Requests != 2 || doc.HTTP.Errors != 1 {
		t.Errorf("http window = %+v", doc.HTTP)
	}
	if doc.Flight == nil || doc.Flight.Capacity == 0 {
		t.Errorf("flight = %+v", doc.Flight)
	}

	// Writes are rejected.
	presp, err := http.Post(ts.URL, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /status = %d, want 405", presp.StatusCode)
	}
}
