package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"coevo/internal/jobs"
	"coevo/internal/obs"
	"coevo/internal/race"
	"coevo/internal/runlog"
)

const cliEnv = "COEVO_TEST_RUN_CLI"

// TestMain lets the test binary stand in for the coevo command: with
// cliEnv set in its environment it runs main instead of the tests. Each
// TestEndToEnd test starts the real CLI that way as child processes, and
// the shard workers that `study -shards` spawns from os.Executable
// inherit the variable.
func TestMain(m *testing.M) {
	if os.Getenv(cliEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// coevoCmd prepares a coevo child process. It runs in a fresh temporary
// directory, so a relative default path cannot write into the checkout.
func coevoCmd(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), cliEnv+"=1")
	cmd.Dir = t.TempDir()
	return cmd
}

// coevo runs the CLI to completion and returns its stdout; a nonzero
// exit fails the test with the child's stderr.
func coevo(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := coevoCmd(t, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("coevo %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return stdout.String()
}

// readFiles maps the name of each file in dir to its content.
func readFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(raw)
	}
	return files
}

// sealed lists the ledger's manifests of one command, failing the test
// for any that did not finish ok.
func sealed(t *testing.T, ledger, command string) []*runlog.Manifest {
	t.Helper()
	all, err := runlog.List(ledger)
	if err != nil {
		t.Fatal(err)
	}
	var out []*runlog.Manifest
	for _, m := range all {
		if m.Command == command {
			if m.Outcome != "ok" {
				t.Errorf("%s run %s finished %s", command, m.ID, m.Outcome)
			}
			out = append(out, m)
		}
	}
	return out
}

// metricValue reads an unlabelled series from a Prometheus exposition.
func metricValue(t *testing.T, exposition, name string) (v float64) {
	t.Helper()
	_, rest, ok := strings.Cut(exposition, "\n"+name+" ")
	if _, err := fmt.Sscan(rest, &v); !ok || err != nil {
		t.Fatalf("/metrics lacks %s: %v", name, err)
	}
	return v
}

// TestJobsClientUsesVersionedAPI drives `coevo jobs` against a server
// that mounts the job API under /api/v1 only: submit -wait, status and
// result must all reach it.
func TestJobsClientUsesVersionedAPI(t *testing.T) {
	q, err := jobs.Open(jobs.QueueOptions{
		Dir: t.TempDir(),
		Exec: func(_ context.Context, j *jobs.Job, _ jobs.RunReport) (*jobs.Result, error) {
			return &jobs.Result{JobID: j.ID, Kind: j.Spec.Kind, Sections: map[string]string{"figure4.txt": "histogram\n"}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close(context.Background()) //nolint:errcheck // test teardown
	// StripPrefix answers 404 to every path outside /api/v1.
	srv := httptest.NewServer(http.StripPrefix(obs.APIPrefix, jobs.Handler(q)))
	defer srv.Close()
	ctx, out := context.Background(), t.TempDir()
	if err := runJobs(ctx, []string{"-server", srv.URL, "-per-taxon", "1", "-wait", "submit"}); err != nil {
		t.Fatalf("jobs submit -wait: %v", err)
	}
	list := q.List("")
	if len(list) != 1 || list[0].State != jobs.StateDone {
		t.Fatalf("queue after submit -wait = %+v, want one done job", list)
	}
	for _, args := range [][]string{{"status", list[0].ID}, {"-out", out, "result", list[0].ID}} {
		if err := runJobs(ctx, append([]string{"-server", srv.URL}, args...)); err != nil {
			t.Fatalf("jobs %v: %v", args, err)
		}
	}
	if got, err := os.ReadFile(filepath.Join(out, "figure4.txt")); err != nil || string(got) != "histogram\n" {
		t.Errorf("fetched section = %q, %v", got, err)
	}
}

// TestEndToEndService drives one `coevo serve` as its clients do: a
// traced study job checked against the CLI, a second tenant's duplicate
// served from the shared cache, a failing ingest's flight dump, and the
// trace file written on SIGINT.
func TestEndToEndService(t *testing.T) {
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	var accessLog bytes.Buffer // read only after Wait
	srv := coevoCmd(t, "serve", "-listen", "127.0.0.1:0", "-jobs-dir", at("jobs"),
		"-runlog-dir", at("runs"), "-cache-dir", at("cache"), "-trace", at("trace.json"))
	srv.Stderr = &accessLog
	banner, err := srv.StdoutPipe()
	if err == nil {
		err = srv.Start()
	}
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill() //nolint:errcheck // already exited after SIGINT
		srv.Wait()         //nolint:errcheck // reaping only
	}()
	// The banner follows the bind and the readiness flip.
	line, err := bufio.NewReader(banner).ReadString('\n')
	url := regexp.MustCompile(`http://[^ ]+`).FindString(line)
	if url == "" {
		t.Fatalf("serve banner %q: %v", line, err)
	}

	// get fetches path and decodes its JSON body into v unless v is nil.
	get := func(path string, v any) string {
		t.Helper()
		code, body := getBody(t, url+path)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d %s", path, code, body)
		}
		if err := json.Unmarshal([]byte(body), v); v != nil && err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}
	// jobsJSON runs a `coevo jobs -json` operation and decodes its job.
	jobsJSON := func(args ...string) *jobs.Job {
		t.Helper()
		var j jobs.Job
		out := coevo(t, append([]string{"jobs", "-server", url, "-json"}, args...)...)
		if err := json.Unmarshal([]byte(out), &j); err != nil {
			t.Fatalf("jobs %v: %v", args, err)
		}
		return &j
	}

	get("/readyz", nil) // 503 unless ready
	get("/debug/pprof/cmdline", nil)

	// A study spec has no shards field: the job service runs every study
	// in one stream, so the field is rejected like any unknown one.
	rejected, err := http.Post(url+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"study","study":{"seed":7,"shards":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	rejected.Body.Close()
	if rejected.StatusCode != http.StatusBadRequest {
		t.Errorf("a study spec with shards: %s, want 400", rejected.Status)
	}

	// Alice posts a study under her traceparent; the client waits for it.
	req, err := http.NewRequest(http.MethodPost, url+"/api/v1/jobs",
		strings.NewReader(`{"kind":"study","study":{"seed":7,"per_taxon":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Coevo-Tenant", "alice")
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var j jobs.Job
	err = json.NewDecoder(resp.Body).Decode(&j)
	resp.Body.Close()
	if tp := resp.Header.Get("traceparent"); err != nil || resp.StatusCode != http.StatusAccepted ||
		!strings.HasPrefix(tp, "00-"+traceID+"-") || j.TraceID != traceID {
		t.Fatalf("submission: %s, traceparent %q, job trace id %q, %v", resp.Status, tp, j.TraceID, err)
	}
	jobsJSON("wait", j.ID)
	if j = *jobsJSON("status", j.ID); j.State != jobs.StateDone || j.TraceID != traceID {
		t.Fatalf("job %s: state %s, trace id %q", j.ID, j.State, j.TraceID)
	}
	coevo(t, "jobs", "-server", url, "-out", at("job-out"), "result", j.ID)

	// Its sections are the same-seed CLI study's, byte for byte.
	coevo(t, "study", "-seed", "7", "-per-taxon", "2", "-out", at("cli-out"), "-runlog-dir", at("cli-runs"))
	sections, cli := readFiles(t, at("job-out")), readFiles(t, at("cli-out"))
	if len(sections) == 0 {
		t.Error("the job result has no sections")
	}
	for name, section := range sections {
		if c, ok := cli[name]; !ok || c != section {
			t.Errorf("section %s differs between the job and the CLI", name)
		}
	}
	if out := coevo(t, "runs", "-runlog-dir", at("cli-runs"), "list"); !strings.Contains(out, "study") {
		t.Errorf("runs list lacks the CLI study:\n%s", out)
	}
	coevo(t, "runs", "-runlog-dir", at("cli-runs"), "show", "latest")

	// The sealed manifest, the status summary and the metrics see the job.
	var m runlog.Manifest
	if get("/api/v1/runs/"+j.RunID, &m); m.Command != "job" || m.TraceID != traceID {
		t.Errorf("/runs manifest %s: command %q, trace id %q", j.RunID, m.Command, m.TraceID)
	}
	var st jobs.ServiceStatus
	if body := get("/api/v1/status", &st); st.UptimeSeconds <= 0 || st.Jobs.Completed != 1 ||
		!strings.Contains(body, `"tenant": "alice"`) {
		t.Errorf("/api/v1/status lacks the uptime, the completed job or tenant alice:\n%s", body)
	}
	metrics := get("/metrics", nil)
	for _, want := range []string{`coevo_http_requests_total{route="/jobs",tenant="alice"}`, "coevo_jobs_queue_wait_seconds"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}

	// Bob's identical spec is served from the shared result cache.
	hits := metricValue(t, metrics, "coevo_cache_hits_total")
	if dup := jobsJSON("-tenant", "bob", "-seed", "7", "-per-taxon", "2", "-wait", "submit"); dup.State != jobs.StateDone || !dup.CacheHit {
		t.Errorf("duplicate job %s: state %s, cache hit %v", dup.ID, dup.State, dup.CacheHit)
	}
	metrics = get("/metrics", nil)
	if after := metricValue(t, metrics, "coevo_cache_hits_total"); after <= hits {
		t.Errorf("coevo_cache_hits_total did not grow: %v -> %v", hits, after)
	}
	for name, want := range map[string]float64{"coevo_jobs_done_total": 2, "coevo_jobs_dedup_hits_total": 1} {
		if v := metricValue(t, metrics, name); v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
	if n := len(sealed(t, at("runs"), "job")); n != 2 {
		t.Errorf("ledger holds %d job runs, want 2", n)
	}

	// An ingest of a garbage git log fails and leaves a flight dump.
	if err := os.WriteFile(at("bad.json"), []byte(`{"kind":"ingest","ingest":{"git_log":"this is not a git log",`+
		`"ddl_versions":{"2020-01-01":"CREATE TABLE t (id INT);"}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := jobsJSON("-tenant", "alice", "-spec", at("bad.json"), "-wait", "submit")
	if bad.State != jobs.StateFailed {
		t.Fatalf("garbage ingest %s: state %s, want failed", bad.ID, bad.State)
	}
	if dump := get("/api/v1/jobs/"+bad.ID+"/flight", nil); !strings.Contains(dump, `"kind": "job-failed"`) {
		t.Errorf("flight dump lacks the job-failed event:\n%s", dump)
	}
	if out := coevo(t, "jobs", "-server", url, "flight", bad.ID); !strings.Contains(out, "job-failed") {
		t.Errorf("coevo jobs flight shows no job-failed event:\n%s", out)
	}

	// SIGINT shuts the service down cleanly and writes the span timeline.
	if err := srv.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(); err != nil {
		t.Errorf("serve after SIGINT: %v", err)
	}
	trace, err := os.ReadFile(at("trace.json"))
	for _, want := range []string{traceID, `"queue-wait"`, `"sealed"`} {
		if !bytes.Contains(trace, []byte(want)) {
			t.Errorf("trace file lacks %s: %v", want, err)
		}
	}
	if !strings.Contains(accessLog.String(), "trace_id="+traceID) {
		t.Errorf("access log lacks trace_id=%s", traceID)
	}
}

// TestEndToEndLargeStudy runs a corpus about ten times the paper's: once
// in one process under a memory limit, then cold and warm across three
// spawned shard workers that share the coordinator's cache. The sharded
// runs must reproduce the single-process output byte for byte.
func TestEndToEndLargeStudy(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("2,004-project study across spawned processes; skipped under -short and -race")
	}
	// 400 MiB is about twice a collect-all peak on the paper's 195
	// projects, and far below what collecting these 2,004 would take.
	const perTaxon, shards, heapCap = "334", 3, 400 << 20
	t.Setenv("GOMEMLIMIT", "400MiB")
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	// Each run writes its CSV among its figures, so comparing the
	// directories compares both.
	study := func(name string, args ...string) map[string]string {
		coevo(t, append([]string{"study", "-per-taxon", perTaxon, "-out", at(name + "-out"),
			"-csv", at(name + "-out/dataset.csv"), "-runlog-dir", at(name + "-runs")}, args...)...)
		return readFiles(t, at(name+"-out"))
	}

	want := study("ref")
	runs := sealed(t, at("ref-runs"), "study")
	if len(runs) != 1 || runs[0].PeakHeapBytes == 0 || runs[0].PeakHeapBytes >= heapCap {
		t.Fatalf("reference runs %+v: want one, its peak heap under %d bytes", runs, heapCap)
	}
	for _, pass := range []string{"cold", "warm"} {
		got := study(pass, "-shards", strconv.Itoa(shards), "-cache-dir", at("cache"))
		if !maps.Equal(got, want) {
			t.Errorf("%s: sharded CSV or figures diverge from the single-process reference", pass)
		}
		// One trace spans the coordinator and every worker's manifest.
		combined := sealed(t, at(pass+"-runs"), "study")
		if len(combined) != 1 || combined[0].Shards != shards || combined[0].TraceID == "" {
			t.Fatalf("%s: combined manifests %+v, want one recording %d shards and a trace id", pass, combined, shards)
		}
		workers := sealed(t, at(pass+"-runs"), "shard")
		if len(workers) != shards {
			t.Errorf("%s: %d shard manifests, want %d", pass, len(workers), shards)
		}
		for _, w := range workers {
			if w.TraceID != combined[0].TraceID {
				t.Errorf("%s: shard manifest %s has trace id %q, want %q", pass, w.ID, w.TraceID, combined[0].TraceID)
			}
		}
		// Warm workers start with cold local caches, so every hit they
		// get comes over the remote tier.
		if c := combined[0].Cache; pass == "warm" && (c == nil || c.RemoteHits == 0) {
			t.Errorf("warm: combined manifest records no remote cache hits: %+v", c)
		}
	}
}

// TestStudyRenderFailureSealsFailedManifest runs a study too small for
// the section 7 statistics: it fails while rendering, after the stream
// has finished, and its ledger entry must record that failure.
func TestStudyRenderFailureSealsFailedManifest(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "runs")
	var stderr bytes.Buffer
	cmd := coevoCmd(t, "study", "-per-taxon", "1", "-runlog-dir", ledger)
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("a 6-project study should fail its statistics:\n%s", stderr.Bytes())
	}
	runs, err := runlog.List(ledger)
	if err != nil || len(runs) != 1 {
		t.Fatalf("ledger = %v, %v; want one run\n%s", runs, err, stderr.Bytes())
	}
	if m := runs[0]; m.Outcome != "failed" || !strings.Contains(m.Error, "statistics") {
		t.Errorf("manifest outcome %q, error %q; want failed on the statistics", m.Outcome, m.Error)
	}
}

// TestEndToEndParse runs `coevo parse` over the per-dialect fixtures,
// each under its own dialect and under auto-detection.
func TestEndToEndParse(t *testing.T) {
	dir, err := filepath.Abs("../../internal/sqlddl/testdata/dialects")
	fixtures, _ := filepath.Glob(filepath.Join(dir, "*.sql"))
	if len(fixtures) == 0 {
		t.Fatalf("no dialect fixtures in %s: %v", dir, err)
	}
	coded := regexp.MustCompile(`DDL-(LEX|SYN|SEM)-[0-9]{3} \[(lex|syntax|semantic)\]`)
	for _, fixture := range fixtures {
		dialect := strings.TrimSuffix(filepath.Base(fixture), ".sql")
		report := coevo(t, "parse", "-dialect", dialect, fixture)
		// The fixtures are written to be detectable: auto-detection must
		// give the same report after the source line.
		_, explicit, _ := strings.Cut(report, "\n")
		_, auto, _ := strings.Cut(coevo(t, "parse", "-dialect", "auto", fixture), "\n")
		if auto != explicit {
			t.Errorf("%s: -dialect auto diverges from -dialect %s:\n%s\nvs\n%s", fixture, dialect, auto, explicit)
		}
		if !strings.Contains(report, "\nstmt: ") {
			t.Errorf("%s: no statements parsed:\n%s", fixture, report)
		}
		for _, line := range strings.Split(report, "\n") {
			if strings.HasPrefix(line, "diag: ") && !coded.MatchString(line) {
				t.Errorf("%s: uncategorized diagnostic %q", fixture, line)
			}
		}
	}
}
