package history_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"coevo/internal/corpus"
	"coevo/internal/history"
	"coevo/internal/schema"
	"coevo/internal/schemadiff"
	"coevo/internal/schematest"
	"coevo/internal/sqlddl"
)

// TestHistoryMatchesFreshBuilds pins the incremental reconstruction —
// one schema.Builder sharing tables across the versions of a history —
// to a fresh build of every version on its own: the same schemas, parse
// reports and deltas, over every version of every project of two
// corpora.
func TestHistoryMatchesFreshBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("extracts two 195-project corpora")
	}
	for _, seed := range []int64{2023, 7} {
		versions := 0
		_, err := corpus.EachContext(context.Background(), corpus.DefaultConfig(seed), func(p *corpus.Project) error {
			h, err := history.ExtractSchemaHistoryFromVersions(p.DDLPath, p.Repo.FileVersions(p.DDLPath), history.DefaultOptions())
			if err != nil {
				return err
			}
			checkFreshBuilds(t, p.Name, h, sqlddl.Generic)
			versions += len(h.Versions)
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d: %d versions", seed, versions)
	}
}

// TestFixtureHistoryMatchesFreshBuilds takes the five dialect fixtures,
// twice over, as the successive versions of one file, under every
// dialect and Auto: the second pass repeats every CREATE TABLE the first
// one built, next to the recovered and rejected statements the fixtures
// seed. Two last versions repeat CREATE TABLE statements whose build
// depends on the dialect (Auto resolves the first to Generic, the second
// to MSSQL by its GO separator) or carries an apply error.
func TestFixtureHistoryMatchesFreshBuilds(t *testing.T) {
	var versions [][]byte
	for pass := 0; pass < 2; pass++ {
		for _, d := range sqlddl.Dialects() {
			src, err := os.ReadFile(filepath.Join("..", "sqlddl", "testdata", "dialects", d.String()+".sql"))
			if err != nil {
				t.Fatal(err)
			}
			versions = append(versions, src)
		}
	}
	const repeated = "CREATE TABLE m (v MONEY, f BIT);\nCREATE TABLE d (x INT, x INT);\n"
	versions = append(versions, []byte(repeated), []byte(repeated+"GO\n"))
	contents := make([]history.DatedContent, len(versions))
	for i, src := range versions {
		contents[i] = history.DatedContent{When: time.Date(2016, time.January, 1+i, 0, 0, 0, 0, time.UTC), Content: src}
	}
	for _, d := range append(sqlddl.Dialects(), sqlddl.Auto) {
		h, err := history.SchemaHistoryFromContents("schema.sql", contents, history.Options{CountBirth: true, Dialect: d})
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		checkFreshBuilds(t, "fixtures/"+d.String(), h, d)
	}
}

// checkFreshBuilds compares every version of h with ParseAndBuildDialect
// of its content, and h's deltas with the sequence of those fresh builds.
func checkFreshBuilds(t *testing.T, name string, h *history.SchemaHistory, d sqlddl.Dialect) {
	t.Helper()
	fresh := []*schema.Schema{schema.New()}
	for i, v := range h.Versions {
		s, rep := schema.New(), schema.ParseReport{}
		if !v.Deleted {
			s, rep = schema.ParseAndBuildDialect(string(v.Raw), d)
		}
		if got, want := schematest.Dump(v.Schema), schematest.Dump(s); got != want {
			t.Fatalf("%s version %d: schema differs from a fresh build:\n got %s\nwant %s", name, i, got, want)
		}
		if !reflect.DeepEqual(v.Report, rep) {
			t.Fatalf("%s version %d: report differs from a fresh build:\n got %+v\nwant %+v", name, i, v.Report, rep)
		}
		fresh = append(fresh, s)
	}
	if want := schemadiff.Sequence(fresh); !reflect.DeepEqual(h.Deltas, want) {
		t.Fatalf("%s: deltas differ from those of fresh builds", name)
	}
}
