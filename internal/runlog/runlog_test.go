package runlog

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"coevo/internal/cache"
	"coevo/internal/obs"
)

// mkManifest builds a finished manifest with distinguishable values.
func mkManifest(id, command string, start time.Time) *Manifest {
	m := NewManifest(command, start)
	m.ID = id
	m.Finish(start.Add(2*time.Second), nil)
	m.Projects = 195
	m.P50Seconds = 0.010
	m.P95Seconds = 0.050
	m.MaxSeconds = 0.080
	m.ThroughputPerSec = 97.5
	m.StageSeconds = map[string]float64{"extract": 1.2, "measure": 0.6}
	m.Cache = &cache.Stats{Hits: 900, Misses: 100}
	m.Metrics = map[string]float64{
		`coevo_engine_tasks_total{run="analyze"}`:                   195,
		`coevo_engine_task_seconds_sum{run="analyze"}`:              1.8,
		`coevo_engine_task_seconds_count{run="analyze"}`:            195,
		`coevo_engine_task_seconds_bucket{run="analyze",le="+Inf"}`: 195,
	}
	return m
}

func TestManifestLifecycle(t *testing.T) {
	start := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	m := NewManifest("study", start)
	if m.ID == "" || !strings.HasPrefix(m.ID, "20260805T100000-") {
		t.Errorf("ID = %q, want timestamp-prefixed", m.ID)
	}
	if m.GoVersion == "" || m.NumCPU == 0 || m.GOMAXPROCS == 0 {
		t.Errorf("provenance not stamped: %+v", m)
	}
	m.Finish(start.Add(90*time.Second), nil)
	if m.Outcome != "ok" || m.DurationSeconds != 90 {
		t.Errorf("Finish: outcome %q, duration %v", m.Outcome, m.DurationSeconds)
	}

	failed := NewManifest("study", start)
	failed.Finish(start.Add(time.Second), os.ErrPermission)
	if failed.Outcome != "failed" || failed.Error == "" {
		t.Errorf("failed outcome = %q (%q)", failed.Outcome, failed.Error)
	}
	interrupted := NewManifest("study", start)
	interrupted.Finish(start.Add(time.Second), context_Canceled())
	if interrupted.Outcome != "interrupted" {
		t.Errorf("interrupted outcome = %q", interrupted.Outcome)
	}

	// Distinct runs started the same instant still get distinct ids.
	if NewID(start) == NewID(start) {
		t.Error("NewID collides for identical start times")
	}
}

// context_Canceled builds a wrapped cancellation error without importing
// context into the package under test's test twice — the message is the
// contract isCancellation matches.
func context_Canceled() error {
	return &wrapped{"study: run aborted: context canceled"}
}

type wrapped struct{ msg string }

func (w *wrapped) Error() string { return w.msg }

func TestWriteListLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	base := time.Date(2026, 8, 5, 9, 0, 0, 0, time.UTC)
	var ids []string
	for i := 0; i < 3; i++ {
		m := mkManifest(NewID(base.Add(time.Duration(i)*time.Minute)), "study", base.Add(time.Duration(i)*time.Minute))
		path, err := Write(dir, m)
		if err != nil {
			t.Fatalf("Write: %v", err)
		}
		if filepath.Dir(path) != dir || !strings.HasSuffix(path, m.ID+".json") {
			t.Errorf("manifest path = %q", path)
		}
		ids = append(ids, m.ID)
	}
	// A torn entry and a foreign file must not hide the ledger.
	os.WriteFile(filepath.Join(dir, "torn.json"), []byte(`{"id": "to`), 0o644)
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hello"), 0o644)

	runs, err := List(dir)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(runs) != 3 {
		t.Fatalf("List = %d runs, want 3", len(runs))
	}
	for i, m := range runs {
		if m.ID != ids[i] {
			t.Errorf("run %d = %s, want %s (start-sorted)", i, m.ID, ids[i])
		}
	}

	if m, err := Load(dir, "latest"); err != nil || m.ID != ids[2] {
		t.Errorf("latest = %v, %v", m, err)
	}
	if m, err := Load(dir, "previous"); err != nil || m.ID != ids[1] {
		t.Errorf("previous = %v, %v", m, err)
	}
	if m, err := Load(dir, ids[0]); err != nil || m.ID != ids[0] {
		t.Errorf("exact id = %v, %v", m, err)
	}
	// A unique prefix resolves; the shared timestampless prefix is
	// ambiguous.
	if m, err := Load(dir, ids[1][:len(ids[1])-2]); err != nil || m.ID != ids[1] {
		t.Errorf("prefix = %v, %v", m, err)
	}
	if _, err := Load(dir, "20260805T"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous prefix should fail, got %v", err)
	}
	if _, err := Load(dir, "nope"); err == nil {
		t.Error("unknown id should fail")
	}

	// Missing directory: empty ledger, not an error.
	if runs, err := List(filepath.Join(t.TempDir(), "absent")); err != nil || len(runs) != 0 {
		t.Errorf("missing dir: %v, %v", runs, err)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent"), "latest"); err == nil {
		t.Error("latest on empty ledger should fail")
	}
}

func TestDiffFlagsInjectedRegressions(t *testing.T) {
	base := time.Date(2026, 8, 5, 9, 0, 0, 0, time.UTC)
	oldRun := mkManifest("run-a", "study", base)
	newRun := mkManifest("run-b", "study", base.Add(time.Hour))

	// Inject regressions: p95 doubles, the extract stage grows 50%, the
	// cache hit rate collapses, and two projects start failing.
	newRun.P95Seconds = 0.100
	newRun.StageSeconds["extract"] = 1.8
	newRun.Cache = &cache.Stats{Hits: 500, Misses: 500}
	newRun.Failed = 2
	// And one improvement that must NOT be flagged.
	newRun.ThroughputPerSec = 120
	// A stage only the new run measured (a new bench case against an
	// older baseline) must be reported but never flagged.
	newRun.StageSeconds["study-shard3/cold"] = 0.5

	r := Diff(oldRun, newRun, DiffOptions{Threshold: 0.20})
	flagged := map[string]bool{}
	byName := map[string]Delta{}
	for _, d := range r.Deltas {
		byName[d.Metric] = d
		if d.Regression {
			flagged[d.Metric] = true
		}
	}
	for _, want := range []string{"p95_seconds", "stage_seconds/extract", "cache/hit_rate", "cache/misses", "failed"} {
		if !flagged[want] {
			t.Errorf("regression %s not flagged; report: %+v", want, flagged)
		}
	}
	for _, never := range []string{"throughput_per_sec", "p50_seconds", "projects", "stage_seconds/study-shard3/cold", `metrics/coevo_engine_tasks_total{run="analyze"}`} {
		if flagged[never] {
			t.Errorf("%s wrongly flagged", never)
		}
	}
	if r.Regressions != len(flagged) {
		t.Errorf("Regressions = %d, flagged %d", r.Regressions, len(flagged))
	}
	if d := byName["p95_seconds"]; d.Pct < 0.99 || d.Pct > 1.01 {
		t.Errorf("p95 pct = %v, want ~1.0 (doubled)", d.Pct)
	}
	// Bucket series are excluded from the comparison.
	if _, ok := byName[`metrics/coevo_engine_task_seconds_bucket{run="analyze",le="+Inf"}`]; ok {
		t.Error("bucket series leaked into the diff")
	}

	// Below threshold: the same pair at a huge threshold flags nothing
	// but the zero-to-nonzero failure count.
	loose := Diff(oldRun, newRun, DiffOptions{Threshold: 10})
	for _, d := range loose.Deltas {
		if d.Regression && d.Metric != "failed" {
			t.Errorf("threshold 1000%% still flags %s", d.Metric)
		}
	}

	// Identical runs: no regressions.
	same := Diff(oldRun, oldRun, DiffOptions{})
	if same.Regressions != 0 {
		t.Errorf("self-diff regressions = %d", same.Regressions)
	}

	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "! p95_seconds") || !strings.Contains(out, "+100.0%") {
		t.Errorf("diff rendering missing the flagged p95 row:\n%s", out)
	}
	if !strings.Contains(out, "5 regression(s)") {
		t.Errorf("diff rendering missing the verdict:\n%s", out)
	}
}

func TestRenderers(t *testing.T) {
	m := mkManifest("run-a", "study", time.Date(2026, 8, 5, 9, 0, 0, 0, time.UTC))
	m.Failures = []FailureSummary{{Name: "proj-7", Err: "bad parse"}}
	m.Options = map[string]string{"workers": "8", "cache-dir": "/tmp/c"}
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"run-a", "195 analyzed", "p95 0.0500s", "extract=1.200s",
		"90% hit rate", "FAIL proj-7", "-workers=8"} {
		if !strings.Contains(out, want) {
			t.Errorf("show output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := WriteList(&buf, []*Manifest{m}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "run-a") || !strings.Contains(buf.String(), "1 run(s)") {
		t.Errorf("list output:\n%s", buf.String())
	}
}

func TestHandler(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2026, 8, 5, 9, 0, 0, 0, time.UTC)
	a := mkManifest("20260805T090000-aaaa", "study", base)
	b := mkManifest("20260805T100000-bbbb", "bench", base.Add(time.Hour))
	for _, m := range []*Manifest{a, b} {
		if _, err := Write(dir, m); err != nil {
			t.Fatal(err)
		}
	}
	h := Handler(dir)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/runs", nil))
	if rec.Code != 200 {
		t.Fatalf("/runs = %d", rec.Code)
	}
	var summaries []Summary
	if err := json.Unmarshal(rec.Body.Bytes(), &summaries); err != nil {
		t.Fatalf("list not JSON: %v", err)
	}
	if len(summaries) != 2 || summaries[0].ID != a.ID || summaries[1].Command != "bench" {
		t.Errorf("summaries = %+v", summaries)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/runs/20260805T090000-aaaa", nil))
	var got Manifest
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got.ID != a.ID || got.Projects != 195 {
		t.Errorf("single manifest = %+v (%v)", got, err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/runs/latest", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got.ID != b.ID {
		t.Errorf("latest = %+v (%v)", got, err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/runs/nope", nil))
	if rec.Code != 404 {
		t.Errorf("unknown run = %d, want 404", rec.Code)
	}
}

func TestRegisterMetrics(t *testing.T) {
	dir := t.TempDir()
	m := mkManifest("run-a", "study", time.Date(2026, 8, 5, 9, 0, 0, 0, time.UTC))
	m.Failed = 3
	if _, err := Write(dir, m); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	RegisterMetrics(reg, dir)
	snap := reg.Snapshot()
	if snap["coevo_runlog_runs"] != 1 {
		t.Errorf("coevo_runlog_runs = %v", snap["coevo_runlog_runs"])
	}
	if snap["coevo_runlog_last_run_failed_projects"] != 3 {
		t.Errorf("failed gauge = %v", snap["coevo_runlog_last_run_failed_projects"])
	}
	if snap["coevo_runlog_last_run_duration_seconds"] != 2 {
		t.Errorf("duration gauge = %v", snap["coevo_runlog_last_run_duration_seconds"])
	}
}
