package study

import (
	"bytes"
	"reflect"
	"testing"

	"coevo/internal/cache"
	"coevo/internal/corpus"
	"coevo/internal/gitlog"
	"coevo/internal/history"
)

// TestIngestRoadMatchesRepositoryRoad: a generated project fed through
// the ingest road — its `git log --name-status --no-merges` text through
// gitlog.Parse and ProjectHistoryFromLog, its DDL versions at their
// commit times through SchemaHistoryFromContents — measures exactly as
// AnalyzeRepository measures its repository, and addresses the same
// measure bundle: one shared cache misses and stores each project once,
// on the repository road, and serves it on the ingest road.
func TestIngestRoadMatchesRepositoryRoad(t *testing.T) {
	cfg := corpus.DefaultConfig(2023)
	cfg.Profiles = corpus.DefaultProfiles()
	for i := range cfg.Profiles {
		cfg.Profiles[i].Count = 10
	}
	projects, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := cache.NewMemory()
	cached := DefaultOptions()
	cached.Cache = c

	want := make([]*ProjectResult, len(projects))
	for i, p := range projects {
		if want[i], err = AnalyzeRepository(p.Repo, p.DDLPath, cached); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range projects {
		var log bytes.Buffer
		if err := gitlog.Emit(&log, gitlog.FromRepository(p.Repo, true)); err != nil {
			t.Fatal(err)
		}
		entries, err := gitlog.Parse(&log)
		if err != nil {
			t.Fatal(err)
		}
		ph, err := history.ProjectHistoryFromLog(entries)
		if err != nil {
			t.Fatal(err)
		}
		var versions []history.DatedContent
		for _, fv := range p.Repo.FileVersions(p.DDLPath) {
			versions = append(versions, history.DatedContent{When: fv.Commit.When(), Content: fv.Content})
		}
		sh, err := history.SchemaHistoryFromContents(p.DDLPath, versions, cached.History)
		if err != nil {
			t.Fatal(err)
		}
		// The cached call restores the repository road's bundle; the
		// uncached one measures the ingested histories afresh.
		for _, opts := range []Options{cached, DefaultOptions()} {
			got, err := AnalyzeHistories(p.Name, p.DDLPath, sh, ph, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s (cached %v): the ingest road measures\n%+v\nthe repository road\n%+v", p.Name, opts.Cache != nil, got, want[i])
			}
		}
	}
	n := int64(len(projects))
	if s := c.Stats(); n != 60 || s.Misses != n || s.Puts != n || s.Hits != n {
		t.Errorf("%d projects: %s; want 60 misses, 60 puts and 60 hits", n, s)
	}
}
