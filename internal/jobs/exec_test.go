package jobs

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"coevo/internal/cache"
	"coevo/internal/corpus"
	"coevo/internal/gitlog"
	"coevo/internal/history"
	"coevo/internal/report"
	"coevo/internal/runlog"
	"coevo/internal/study"
)

const execSeed = 11

func execStudySpec() Spec {
	return Spec{Kind: KindStudy, Study: &StudySpec{Seed: execSeed, PerTaxon: 2, CSV: true}}
}

// cliStudySections renders the same study through the collect-all API
// (materialize the corpus, analyze the slice, render DatasetArtifacts) —
// an independent route to the same figures the streaming executor must
// reproduce byte for byte.
func cliStudySections(t *testing.T, seed int64, perTaxon int) map[string]string {
	t.Helper()
	cfg := corpus.DefaultConfig(seed)
	for i := range cfg.Profiles {
		cfg.Profiles[i].Count = perTaxon
	}
	projects, err := corpus.GenerateContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("GenerateContext: %v", err)
	}
	d, err := study.AnalyzeCorpusContext(context.Background(), projects, study.DefaultOptions())
	if err != nil {
		t.Fatalf("AnalyzeCorpusContext: %v", err)
	}
	sections, err := renderSections(report.DatasetArtifacts(d, seed))
	if err != nil {
		t.Fatalf("renderSections: %v", err)
	}
	var csv bytes.Buffer
	if err := report.Render(&csv, d, report.CSV); err != nil {
		t.Fatalf("render CSV: %v", err)
	}
	sections["dataset.csv"] = csv.String()
	return sections
}

// TestExecutorStudyMatchesCLI is the acceptance criterion: a job
// submitted over the service produces figures byte-identical to the
// same-seed `coevo study` run.
func TestExecutorStudyMatchesCLI(t *testing.T) {
	e := &Executor{}
	j := &Job{ID: NewID(time.Now()), Tenant: "t", Spec: execStudySpec()}
	res, err := e.Run(context.Background(), j, RunReport{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := cliStudySections(t, execSeed, 2)
	if len(res.Sections) != len(want) {
		t.Errorf("section count = %d, want %d", len(res.Sections), len(want))
	}
	for name, cli := range want {
		got, ok := res.Sections[name]
		if !ok {
			t.Errorf("job result missing section %s", name)
			continue
		}
		if got != cli {
			t.Errorf("section %s differs from the CLI rendering (%d vs %d bytes)", name, len(got), len(cli))
		}
	}
	if res.Projects == 0 || res.FailedProjects != 0 {
		t.Errorf("projects = %d, failed = %d", res.Projects, res.FailedProjects)
	}
}

// TestExecutorShardedStudyMatchesUnsharded runs one spec in process as
// three shards and unsharded: the shard.Merge path must return every
// section, dataset.csv included, byte-identical to the unsharded run.
func TestExecutorShardedStudyMatchesUnsharded(t *testing.T) {
	run := func(shards int) *Result {
		t.Helper()
		spec := execStudySpec()
		spec.Study.Shards = shards
		res, err := (&Executor{}).Run(context.Background(), &Job{ID: NewID(time.Now()), Tenant: "t", Spec: spec}, RunReport{})
		if err != nil {
			t.Fatalf("Run(shards=%d): %v", shards, err)
		}
		return res
	}
	want, got := run(0), run(3)
	if _, ok := want.Sections["dataset.csv"]; !ok {
		t.Fatal("csv spec produced no dataset.csv section")
	}
	if len(got.Sections) != len(want.Sections) {
		t.Errorf("section count = %d, want %d", len(got.Sections), len(want.Sections))
	}
	for name, w := range want.Sections {
		if g, ok := got.Sections[name]; !ok {
			t.Errorf("sharded result missing section %s", name)
		} else if g != w {
			t.Errorf("section %s differs between sharded and unsharded runs (%d vs %d bytes)", name, len(g), len(w))
		}
	}
	if got.Projects != want.Projects || got.FailedProjects != want.FailedProjects {
		t.Errorf("sharded projects/failed = %d/%d, want %d/%d",
			got.Projects, got.FailedProjects, want.Projects, want.FailedProjects)
	}
}

// TestExecutorDedup runs the same spec twice through one shared cache:
// the second run must be served from the whole-result memo (CacheHit
// fires, cache hits increase) and return identical sections.
func TestExecutorDedup(t *testing.T) {
	c := cache.NewMemory()
	e := &Executor{Cache: c}
	spec := Spec{Kind: KindStudy, Study: &StudySpec{Seed: 5, PerTaxon: 2}}

	first, err := e.Run(context.Background(), &Job{ID: NewID(time.Now()), Tenant: "alice", Spec: spec}, RunReport{})
	if err != nil {
		t.Fatalf("first Run: %v", err)
	}
	hitsBefore := c.Stats().Hits

	var cacheHit bool
	var lastDone, lastTotal int
	rep := RunReport{
		CacheHit: func() { cacheHit = true },
		Progress: func(done, total int) { lastDone, lastTotal = done, total },
	}
	second, err := e.Run(context.Background(), &Job{ID: NewID(time.Now()), Tenant: "bob", Spec: spec}, rep)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if !cacheHit {
		t.Error("duplicate submission did not report a cache hit")
	}
	if c.Stats().Hits <= hitsBefore {
		t.Errorf("cache hits %d -> %d, want an increase", hitsBefore, c.Stats().Hits)
	}
	if lastDone != second.Projects || lastTotal != second.Projects {
		t.Errorf("cache-hit progress = %d/%d, want %d/%d", lastDone, lastTotal, second.Projects, second.Projects)
	}
	if len(first.Sections) != len(second.Sections) {
		t.Fatalf("section counts differ: %d vs %d", len(first.Sections), len(second.Sections))
	}
	for name, a := range first.Sections {
		if b := second.Sections[name]; a != b {
			t.Errorf("cached section %s differs from the computed one", name)
		}
	}
}

const execGitLog = `commit 8f3b2c1d4e5f6a7b8c9d0e1f2a3b4c5d6e7f8091
Author: Jane Dev <jane@example.com>
Date:   2016-02-03 10:20:30 +0000

    Add notes table

M	schema.sql
A	parsers/notes.js

commit 77aa88b99cc00dd11ee22ff33aa44bb55cc66dd7
Author: Jane Dev <jane@example.com>
Date:   2016-01-10 09:00:00 +0000

    initial

A	schema.sql
A	package.json
`

var execDDLVersions = map[string]string{
	"2016-01-10": "CREATE TABLE users (id INT, email TEXT);",
	"2016-02-03": "CREATE TABLE users (id INT, email TEXT, name TEXT);\nCREATE TABLE notes (id INT, user_id INT, body TEXT);",
}

// TestExecutorIngestMatchesDirect checks the ingest job renders exactly
// what the in-process analysis path produces for the same payload.
func TestExecutorIngestMatchesDirect(t *testing.T) {
	e := &Executor{}
	spec := Spec{
		Kind: KindIngest, Name: "sample",
		Ingest: &IngestSpec{GitLog: execGitLog, DDLVersions: execDDLVersions},
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("fixture spec invalid: %v", err)
	}
	res, err := e.Run(context.Background(), &Job{ID: NewID(time.Now()), Tenant: "t", Spec: spec}, RunReport{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := res.Sections["casestudy.txt"]
	if got == "" {
		t.Fatalf("sections = %v, want casestudy.txt", res.Sections)
	}

	entries, err := gitlog.Parse(strings.NewReader(execGitLog))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ph, err := history.ProjectHistoryFromLog(entries)
	if err != nil {
		t.Fatalf("ProjectHistoryFromLog: %v", err)
	}
	versions, err := datedVersions(execDDLVersions)
	if err != nil {
		t.Fatalf("datedVersions: %v", err)
	}
	opts := study.DefaultOptions()
	sh, err := history.SchemaHistoryFromContents("schema.sql", versions, opts.History)
	if err != nil {
		t.Fatalf("SchemaHistoryFromContents: %v", err)
	}
	pres, err := study.AnalyzeHistories("sample", "schema.sql", sh, ph, opts)
	if err != nil {
		t.Fatalf("AnalyzeHistories: %v", err)
	}
	var want bytes.Buffer
	if err := report.CaseStudy(&want, pres); err != nil {
		t.Fatalf("CaseStudy: %v", err)
	}
	if got != want.String() {
		t.Errorf("job case study differs from direct rendering:\n--- job ---\n%s\n--- direct ---\n%s", got, want.String())
	}
	if res.Projects != 1 {
		t.Errorf("projects = %d, want 1", res.Projects)
	}
}

// TestExecutorSealsManifest checks every executed job lands in the run
// ledger with its job linkage, and the run id flows back to the queue.
func TestExecutorSealsManifest(t *testing.T) {
	dir := t.TempDir()
	e := &Executor{LedgerDir: dir}
	var runID string
	rep := RunReport{RunID: func(id string) { runID = id }}
	j := &Job{ID: NewID(time.Now()), Tenant: "alice", Spec: Spec{Kind: KindStudy, Study: &StudySpec{Seed: 3, PerTaxon: 2}}}
	if _, err := e.Run(context.Background(), j, rep); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if runID == "" {
		t.Fatal("executor never reported a run id")
	}
	m, err := runlog.Load(dir, runID)
	if err != nil {
		t.Fatalf("Load(%s): %v", runID, err)
	}
	if m.Command != "job" {
		t.Errorf("command = %q, want job", m.Command)
	}
	if m.JobID != j.ID || m.Tenant != "alice" {
		t.Errorf("manifest linkage = (%q, %q), want (%q, alice)", m.JobID, m.Tenant, j.ID)
	}
	if m.Options["seed"] != "3" || m.Options["kind"] != KindStudy {
		t.Errorf("options = %v", m.Options)
	}
	if m.Outcome != "ok" {
		t.Errorf("outcome = %q", m.Outcome)
	}
}

func TestParseVersionName(t *testing.T) {
	when, seq, err := parseVersionName("2016-01-10")
	if err != nil || seq != 0 || !when.Equal(time.Date(2016, 1, 10, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("plain date: %v %d %v", when, seq, err)
	}
	when, seq, err = parseVersionName("2016-01-10.3")
	if err != nil || seq != 3 || !when.Equal(time.Date(2016, 1, 10, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("dated+seq: %v %d %v", when, seq, err)
	}
	for _, bad := range []string{"not-a-date", "2016-13-40", "2016-01-10.x", "2016-01-10.-1", ""} {
		if _, _, err := parseVersionName(bad); err == nil {
			t.Errorf("parseVersionName(%q) accepted", bad)
		}
	}
}

// TestDatedVersions orders same-day versions by sequence and spaces all
// versions a minute apart so history timestamps stay strictly increasing.
func TestDatedVersions(t *testing.T) {
	vs, err := datedVersions(map[string]string{
		"2016-01-10.1": "b",
		"2016-01-10":   "a",
		"2016-02-01":   "c",
	})
	if err != nil {
		t.Fatalf("datedVersions: %v", err)
	}
	if len(vs) != 3 {
		t.Fatalf("len = %d", len(vs))
	}
	want := []string{"a", "b", "c"}
	for i, w := range want {
		if string(vs[i].Content) != w {
			t.Errorf("version %d = %q, want %q", i, vs[i].Content, w)
		}
	}
	for i := 1; i < len(vs); i++ {
		if !vs[i-1].When.Before(vs[i].When) {
			t.Errorf("timestamps not increasing: %v then %v", vs[i-1].When, vs[i].When)
		}
	}
}
