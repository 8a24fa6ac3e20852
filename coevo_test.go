package coevo_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"coevo"
	"coevo/internal/corpus"
)

// TestPublicAPIEndToEnd walks the facade exactly as the README shows:
// build a repository, analyze it, render the diagram.
func TestPublicAPIEndToEnd(t *testing.T) {
	repo := coevo.NewRepository("api/demo")
	sig := func(m int) coevo.Signature {
		return coevo.Signature{Name: "dev", Email: "d@e.f",
			When: time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC).AddDate(0, m, 0)}
	}
	repo.StageString("schema.sql", "CREATE TABLE t (id INT PRIMARY KEY, v TEXT);")
	repo.StageString("main.go", "package main")
	if _, err := repo.Commit("init", sig(0)); err != nil {
		t.Fatal(err)
	}
	repo.StageString("schema.sql", "CREATE TABLE t (id INT PRIMARY KEY, v TEXT, w INT);")
	if _, err := repo.Commit("grow", sig(4)); err != nil {
		t.Fatal(err)
	}
	repo.StageString("main.go", "package main // v2")
	if _, err := repo.Commit("work", sig(8)); err != nil {
		t.Fatal(err)
	}

	res, err := coevo.AnalyzeRepository(repo, "", coevo.DefaultOptions())
	if err != nil {
		t.Fatalf("AnalyzeRepository: %v", err)
	}
	if res.DurationMonths != 8 || res.TotalSchemaActivity != 3 {
		t.Errorf("result = %+v", res)
	}
	var buf bytes.Buffer
	if err := coevo.Render(&buf, coevo.JointProgressFigure{Title: "demo", Progress: res.Joint}, coevo.Text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "S=schema") {
		t.Error("diagram legend missing")
	}
}

// TestPublicAPICorpusFlow exercises the corpus path through the facade
// with a reduced population, including every figure writer.
func TestPublicAPICorpusFlow(t *testing.T) {
	cfg := coevo.DefaultCorpusConfig(31)
	profiles := corpus.DefaultProfiles()
	for i := range profiles {
		profiles[i].Count = 2
		if profiles[i].DurationMonths[1] > 30 {
			profiles[i].DurationMonths[1] = 30
		}
	}
	cfg.Profiles = profiles

	projects, err := coevo.GenerateCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := coevo.AnalyzeCorpus(projects, coevo.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 12 {
		t.Fatalf("Size = %d", d.Size())
	}

	var buf bytes.Buffer
	writers := []func() error{
		func() error { return coevo.Render(&buf, d.SynchronicityHistogram(0.10, 5), coevo.Text) },
		func() error { return coevo.Render(&buf, d.DurationSynchronicityScatter(), coevo.Text) },
		func() error { return coevo.Render(&buf, d.AdvanceBreakdown(), coevo.Text) },
		func() error { return coevo.Render(&buf, d.AlwaysAdvance(), coevo.Text) },
		func() error { return coevo.Render(&buf, d.Attainment(), coevo.Text) },
		func() error { return coevo.Render(&buf, d, coevo.CSV) },
	}
	for i, w := range writers {
		if err := w(); err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	st, err := d.Statistics(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := coevo.Render(&buf, st, coevo.Text); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("no rendered output")
	}
}
