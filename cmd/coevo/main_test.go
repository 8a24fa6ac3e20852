package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"coevo/internal/cache"
	"coevo/internal/corpus"
	"coevo/internal/dataset"
	"coevo/internal/history"
	"coevo/internal/report"
	"coevo/internal/runlog"
	"coevo/internal/study"
	"coevo/internal/taxa"
)

// smallConfig is a corpus of one short-lived project per taxon.
func smallConfig() corpus.Config {
	cfg := corpus.DefaultConfig(3)
	profiles := corpus.DefaultProfiles()
	for i := range profiles {
		profiles[i].Count = 1
		if profiles[i].DurationMonths[1] > 24 {
			profiles[i].DurationMonths[1] = 24
		}
	}
	cfg.Profiles = profiles
	return cfg
}

// smallProjects generates smallConfig's projects for CLI helpers.
func smallProjects(t *testing.T) []*corpus.Project {
	t.Helper()
	projects, err := corpus.Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return projects
}

// withCtx adapts a context-first subcommand to the plain run signature.
func withCtx(f func(context.Context, []string) error) func([]string) error {
	return func(args []string) error { return f(context.Background(), args) }
}

// TestFlagErrorsReturnInsteadOfExiting exercises the ContinueOnError flag
// sets: a bad flag must come back through the error path of every
// subcommand, and -h must be a clean no-op (usage printed, nil error).
func TestFlagErrorsReturnInsteadOfExiting(t *testing.T) {
	subcommands := map[string]func([]string) error{
		"study": withCtx(runStudy), "gen": withCtx(runGen),
		"analyze": withCtx(runAnalyze), "taxa": withCtx(runTaxa),
		"bench":  withCtx(runBench),
		"ingest": runIngest, "impact": runImpact, "smo": runSMO,
		"export": runExport, "cache": runCache,
		"serve": withCtx(runServe), "runs": runRuns,
	}
	for name, run := range subcommands {
		if err := run([]string{"-definitely-not-a-flag"}); err == nil {
			t.Errorf("%s: bad flag should return an error", name)
		}
		if err := run([]string{"-h"}); err != nil {
			t.Errorf("%s: -h should be a clean exit, got %v", name, err)
		}
	}
}

// TestPipelineFlags drives the shared flag kit through its observability
// surfaces without running a study.
func TestPipelineFlags(t *testing.T) {
	build := func(t *testing.T, args ...string) (*pipeline, error) {
		t.Helper()
		fs := newFlagSet("test")
		builder := pipelineFlags(fs, true)
		if ok, err := parseFlags(fs, args); !ok {
			t.Fatalf("parse %v: %v", args, err)
		}
		return builder()
	}

	p, err := build(t)
	if err != nil || p.obs != nil || p.cache != nil || p.metrics != nil || p.server != nil {
		t.Errorf("bare pipeline should have no observer/cache/metrics/server: %+v, %v", p, err)
	}
	if err := p.finish(context.Background(), nil); err != nil {
		t.Errorf("bare finish: %v", err)
	}

	if _, err := build(t, "-log-level", "loud"); err == nil {
		t.Error("invalid -log-level should fail")
	}

	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "heap.pprof")
	p, err = build(t, "-trace", tracePath, "-log-level", "warn",
		"-cpuprofile", cpuPath, "-memprofile", memPath,
		"-cache-dir", filepath.Join(dir, "cache"), "-metrics", "-workers", "2")
	if err != nil {
		t.Fatalf("full pipeline: %v", err)
	}
	if p.obs == nil || !p.obs.Tracing() || p.cache == nil || p.metrics == nil {
		t.Fatal("full pipeline missing a component")
	}
	if p.exec.Workers != 2 || p.exec.Obs != p.obs {
		t.Errorf("exec options not threaded: %+v", p.exec)
	}
	if err := p.finish(context.Background(), nil); err != nil {
		t.Fatalf("finish: %v", err)
	}
	for _, path := range []string{tracePath, cpuPath, memPath} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", path, err)
		}
	}
	var trace struct {
		TraceEvents []any `json:"traceEvents"`
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil || json.Unmarshal(raw, &trace) != nil {
		t.Errorf("trace file unreadable: %v", err)
	}
}

// TestBenchSubcommand runs the benchmark matrix on a tiny corpus and
// checks the report shape.
func TestBenchSubcommand(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	ledger := filepath.Join(dir, "runs")
	if err := runBench(context.Background(), []string{"-out", out, "-per-taxon", "1", "-seed", "7",
		"-shards", "2", "-runlog-dir", ledger}); err != nil {
		t.Fatalf("bench: %v", err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		GoVersion  string `json:"go_version"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		NumCPU     int    `json:"num_cpu"`
		Results    []struct {
			Name        string  `json:"name"`
			Cache       string  `json:"cache"`
			Projects    int     `json:"projects"`
			Seconds     float64 `json:"seconds"`
			CacheHits   int64   `json:"cache_hits"`
			CacheMisses int64   `json:"cache_misses"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if rep.GoVersion == "" || rep.GOMAXPROCS < 1 || rep.NumCPU < 1 {
		t.Errorf("provenance not stamped: %+v", rep)
	}
	if len(rep.Results) < 2 {
		t.Fatalf("expected at least cold+warm results, got %d", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.Projects != 6 || r.Seconds <= 0 {
			t.Errorf("bad case %+v", r)
		}
	}
	if rep.Results[0].Cache != "cold" || rep.Results[1].Cache != "warm" {
		t.Errorf("cold/warm ordering wrong: %+v", rep.Results[:2])
	}
	if rep.Results[0].CacheMisses == 0 {
		t.Errorf("cold case should miss the cache: %+v", rep.Results[0])
	}
	if rep.Results[1].CacheHits == 0 || rep.Results[1].CacheMisses != 0 {
		t.Errorf("warm case should replay entirely from cache: %+v", rep.Results[1])
	}

	// The bench run also landed in the ledger, each case as a stage.
	runs, err := runlog.List(ledger)
	if err != nil || len(runs) != 1 {
		t.Fatalf("bench ledger = %v, %v; want 1 run", runs, err)
	}
	m := runs[0]
	if m.Command != "bench" || m.Outcome != "ok" || m.Projects != 6 {
		t.Errorf("bench manifest = %+v", m)
	}
	if m.StageSeconds["study-stream/cold/workers=1"] <= 0 || m.StageSeconds["study-shard2/warm/workers=1"] <= 0 {
		t.Errorf("bench stages = %v", m.StageSeconds)
	}
	if m.Cache == nil || m.Cache.Hits == 0 {
		t.Errorf("bench cache stats = %+v", m.Cache)
	}
	if m.Options["per-taxon"] != "1" || m.Options["seed"] != "7" {
		t.Errorf("bench options = %v", m.Options)
	}
}

// TestCacheSubcommand drives coevo cache through its three operations
// against a real store.
func TestCacheSubcommand(t *testing.T) {
	if err := runCache([]string{"stats"}); err == nil {
		t.Error("missing -cache-dir should fail")
	}
	dir := filepath.Join(t.TempDir(), "cache")
	if err := runCache([]string{"-cache-dir", dir, "frobnicate"}); err == nil {
		t.Error("unknown operation should fail")
	}
	if err := runCache([]string{"-cache-dir", dir}); err == nil {
		t.Error("missing operation should fail")
	}

	c, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(cache.NewHasher("test/v1").Bytes([]byte("a")).Sum(), []byte("payload-a"))
	c.Put(cache.NewHasher("test/v1").Bytes([]byte("b")).Sum(), []byte("payload-b"))

	for _, op := range []string{"stats", "verify", "clear", "stats"} {
		if err := runCache([]string{"-cache-dir", dir, op}); err != nil {
			t.Errorf("cache %s: %v", op, err)
		}
	}
	rep, err := c.Size()
	if err != nil || rep.Entries != 0 {
		t.Errorf("after clear: %+v, %v", rep, err)
	}
}

func TestReportFailures(t *testing.T) {
	if err := reportFailures(0, nil); err != nil {
		t.Errorf("no failures should be silent: %v", err)
	}
	bad := []study.Failure{{Name: "bad", Err: io.ErrUnexpectedEOF}}
	if err := reportFailures(1, bad); err != nil {
		t.Errorf("partial failure must not be fatal: %v", err)
	}
	if err := reportFailures(0, bad); err == nil {
		t.Error("a study where every project failed must error")
	}
}

func TestWorkersLabel(t *testing.T) {
	if got := workersLabel(0); got != "workers=GOMAXPROCS" {
		t.Errorf("workersLabel(0) = %q", got)
	}
	if got := workersLabel(8); got != "workers=8" {
		t.Errorf("workersLabel(8) = %q", got)
	}
}

func TestPickProject(t *testing.T) {
	projects := smallProjects(t)
	pick := func(which string) (*corpus.Project, error) {
		return pickProject(corpus.NewSource(smallConfig()), which)
	}
	same := func(p, q *corpus.Project) bool {
		return p != nil && p.Name == q.Name && p.Repo.Head().Hash == q.Repo.Head().Hash
	}

	byIndex, err := pick("2")
	if err != nil || !same(byIndex, projects[2]) {
		t.Errorf("pick by index: %v, %v", byIndex, err)
	}
	byName, err := pick(projects[3].Name)
	if err != nil || !same(byName, projects[3]) {
		t.Errorf("pick by name: %v, %v", byName, err)
	}
	if _, err := pick("999"); err == nil {
		t.Error("out-of-range index should fail")
	}
	if _, err := pick("no-such-project"); err == nil {
		t.Error("unknown name should fail")
	}
}

// TestSingleProjectCommandsMatchMaterializedCorpus: analyze and smo
// generate only the project they show, picked by index or by the first
// name containing a substring, and print what the project at that place
// in the materialized corpus prints.
func TestSingleProjectCommandsMatchMaterializedCorpus(t *testing.T) {
	projects, err := corpus.Generate(corpus.DefaultConfig(2023))
	if err != nil {
		t.Fatal(err)
	}
	// pick is the selection rule over the materialized corpus.
	pick := func(which string) *corpus.Project {
		if idx, err := strconv.Atoi(which); err == nil {
			return projects[idx]
		}
		for _, p := range projects {
			if strings.Contains(p.Name, which) {
				return p
			}
		}
		t.Fatalf("no project matches %q", which)
		return nil
	}
	// "7/project-1" is in the names of projects 107, 127, ..., 187.
	for _, which := range []string{"100", "7/project-1"} {
		p := pick(which)
		res, err := study.AnalyzeRepository(p.Repo, p.DDLPath, study.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var analyze, smoOut bytes.Buffer
		if err := report.CaseStudy(&analyze, res); err != nil {
			t.Fatal(err)
		}
		if err := writeSMO(&smoOut, p, 0, -1, false); err != nil {
			t.Fatal(err)
		}
		if got := coevo(t, "analyze", "-project", which); got != analyze.String() {
			t.Errorf("analyze -project %s:\n%s\nwant the output for %s:\n%s", which, got, p.Name, analyze.String())
		}
		if got := coevo(t, "smo", "-project", which); got != smoOut.String() {
			t.Errorf("smo -project %s:\n%s\nwant the output for %s:\n%s", which, got, p.Name, smoOut.String())
		}
	}
}

// TestGenHasNoCacheDir: generated projects are never cached, so gen
// rejects -cache-dir before it creates anything.
func TestGenHasNoCacheDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	if err := runGen(context.Background(), []string{"-cache-dir", dir}); err == nil {
		t.Error("gen -cache-dir should be a flag error")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("gen -cache-dir created %s: %v", dir, err)
	}
}

func TestWriteFileCreatesDirectories(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nested", "deeper", "out.txt")
	err := writeFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "content")
		return err
	})
	if err != nil {
		t.Fatalf("writeFile: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "content" {
		t.Errorf("read back %q, %v", got, err)
	}
}

func TestLoadDatedDDLVersions(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"2016-01-05.sql":   "CREATE TABLE a (x INT);",
		"2016-03-10.sql":   "CREATE TABLE a (x INT, y INT);",
		"2016-03-10.2.sql": "CREATE TABLE a (x INT, y INT, z INT);",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	versions, err := loadDatedDDLVersions(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 3 {
		t.Fatalf("versions = %d", len(versions))
	}
	for i := 1; i < len(versions); i++ {
		if !versions[i].When.After(versions[i-1].When) {
			t.Errorf("versions not strictly ordered: %v", versions[i].When)
		}
	}
	if !strings.Contains(string(versions[2].Content), "z INT") {
		t.Errorf("intra-day ordering wrong: %q", versions[2].Content)
	}

	if _, err := loadDatedDDLVersions(t.TempDir()); err == nil {
		t.Error("empty dir should fail")
	}
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "not-a-date.sql"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadDatedDDLVersions(bad); err == nil {
		t.Error("undated file name should fail")
	}
}

func TestCollectRepositoryForExport(t *testing.T) {
	// The export path must work for every generated taxon.
	for _, p := range smallProjects(t) {
		st, err := dataset.CollectRepository(p.Repo, p.DDLPath, history.DefaultOptions(), taxa.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if st.Project != p.Repo.Name() {
			t.Errorf("project name mismatch: %s", st.Project)
		}
	}
}

func TestPrintCaseStudyRuns(t *testing.T) {
	projects := smallProjects(t)
	res, err := analyzeForTest(projects[1])
	if err != nil {
		t.Fatal(err)
	}
	tmp, err := os.CreateTemp(t.TempDir(), "case-*.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := printCaseStudy(tmp, res); err != nil {
		t.Fatalf("printCaseStudy: %v", err)
	}
	if st, _ := tmp.Stat(); st.Size() == 0 {
		t.Error("case study output empty")
	}
}

// analyzeForTest runs the study analysis on a corpus project.
func analyzeForTest(p *corpus.Project) (*study.ProjectResult, error) {
	return study.AnalyzeRepository(p.Repo, p.DDLPath, study.DefaultOptions())
}
