package study

import (
	"context"
	"fmt"
	"testing"
	"time"

	"coevo/internal/cache"
	"coevo/internal/history"
	"coevo/internal/race"
	"coevo/internal/vcs"
)

// allocProject builds a small but representative project: a DDL file
// evolving over several months alongside source churn, the same shape the
// corpus generator emits.
func allocProject(t testing.TB) (*vcs.Repository, string) {
	t.Helper()
	repo := vcs.NewRepository("alloc/project")
	when := time.Date(2019, 3, 1, 12, 0, 0, 0, time.UTC)
	sig := func() vcs.Signature {
		return vcs.Signature{Name: "dev", Email: "dev@example.com", When: when}
	}
	const ddlPath = "db/schema.sql"
	ddl := []string{
		"CREATE TABLE users (id INT, email VARCHAR(255));",
		"CREATE TABLE users (id INT, email VARCHAR(255), created_at TIMESTAMP);\nCREATE TABLE orders (id INT, user_id INT);",
		"CREATE TABLE users (id BIGINT, email VARCHAR(320), created_at TIMESTAMP);\nCREATE TABLE orders (id INT, user_id INT, total DECIMAL(10,2));",
	}
	for i, version := range ddl {
		repo.StageString(ddlPath, version)
		repo.StageString("src/app.go", fmt.Sprintf("package app // rev %d", i))
		if _, err := repo.Commit(fmt.Sprintf("rev %d", i), sig()); err != nil {
			t.Fatalf("commit: %v", err)
		}
		when = when.AddDate(0, 1, 3)
	}
	return repo, ddlPath
}

// measureBudget caps the average allocations of measuring one project from
// already-extracted histories: the heartbeats, the aligned joint diagram
// and the measure suite — all retained in the returned ProjectResult —
// plus nothing else; every scratch structure comes from the worker state
// or the fallback pool.
const measureBudget = 40 // measured 25: the retained result object graph

func TestMeasureProjectAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun accounting is distorted under the race detector")
	}
	repo, ddlPath := allocProject(t)
	fvs := repo.FileVersions(ddlPath)
	ph, err := history.ExtractProjectHistory(repo)
	if err != nil {
		t.Fatalf("project history: %v", err)
	}
	sh, err := history.ExtractSchemaHistoryFromVersions(ddlPath, fvs, history.DefaultOptions())
	if err != nil {
		t.Fatalf("schema history: %v", err)
	}
	opts := DefaultOptions()
	ctx := context.Background()
	avg := testing.AllocsPerRun(100, func() {
		res, err := analyze(ctx, "alloc/project", ddlPath, sh, ph, opts)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		if res.Measures == nil {
			t.Fatal("no measures")
		}
	})
	if avg > measureBudget {
		t.Errorf("measuring one project allocates %.1f/op, budget %d", avg, measureBudget)
	}
	t.Logf("measure allocs/op: %.1f", avg)
}

// cacheHitBudget caps the average allocations of analyzing a repository
// whose measure bundle is cached: listing its DDL versions and commits,
// hashing the key and decoding the bundle. No version is parsed or
// diffed: keying the parsed history instead, which parses and diffs the
// three versions before every lookup, allocates 80.
const cacheHitBudget = 30 // measured 17

func TestRepositoryCacheHitAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun accounting is distorted under the race detector")
	}
	repo, ddlPath := allocProject(t)
	opts := DefaultOptions()
	opts.Cache = cache.NewMemory()
	if _, err := AnalyzeRepository(repo, ddlPath, opts); err != nil {
		t.Fatalf("cold: %v", err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := AnalyzeRepository(repo, ddlPath, opts); err != nil {
			t.Fatalf("warm: %v", err)
		}
	})
	if s := opts.Cache.Stats(); s.Misses != 1 || s.Puts != 1 {
		t.Fatalf("%s; want one miss and one put", s)
	}
	if avg > cacheHitBudget {
		t.Errorf("a cached repository allocates %.1f/op, budget %d", avg, cacheHitBudget)
	}
	t.Logf("cache-hit allocs/op: %.1f", avg)
}
