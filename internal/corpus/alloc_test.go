package corpus

import (
	"runtime"
	"testing"

	"coevo/internal/history"
	"coevo/internal/race"
)

// generateBudget caps the allocations of generating one fixed project —
// project 40 of the seed-2023 corpus, an ALMOST FROZEN history of 141
// commits whose schema changes after its birth — from its seed to its
// last commit. Commits and change lists come from the repository's slabs
// (one allocation each per commit took 690).
const generateBudget = 550 // measured 422

func TestGenerateProjectAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun accounting is distorted under the race detector")
	}
	cfg := DefaultConfig(2023)
	prof := cfg.Profiles[1]
	avg := testing.AllocsPerRun(10, func() {
		if _, err := generateFresh(cfg, prof, 40); err != nil {
			t.Fatal(err)
		}
	})
	if avg > generateBudget {
		t.Errorf("generating one project allocates %.0f/op, budget %d", avg, generateBudget)
	}
	t.Logf("generate allocs/op: %.0f", avg)
}

// lineChurnBudget caps the allocations of one line-churn extraction
// (history.ExtractProjectHistoryWithLines) over a freshly generated
// project — project 194 of the seed-2023 corpus, the 848-commit ACTIVE
// history that is the corpus's largest. Reading both sides of each change
// from change lists keeps it near the cost of the line diffs themselves;
// materializing a tree per commit took 52,532.
const lineChurnBudget = 35000 // measured 27,437

func TestLineChurnAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting is distorted under the race detector")
	}
	cfg := DefaultConfig(2023)
	p, err := generateFresh(cfg, cfg.Profiles[len(cfg.Profiles)-1], 194)
	if err != nil {
		t.Fatal(err)
	}
	n := mallocs(t, func() error {
		_, err := history.ExtractProjectHistoryWithLines(p.Repo)
		return err
	})
	if n > lineChurnBudget {
		t.Errorf("line churn of %s allocates %d, budget %d", p.Name, n, lineChurnBudget)
	} else {
		t.Logf("line churn of %s: %d allocs", p.Name, n)
	}
}

// schemaHistoryBudget caps the allocations of one schema-history
// extraction (history.ExtractSchemaHistoryFromVersions) of project 192 of
// the seed-2023 corpus, an ACTIVE history whose DDL file has 70 versions.
// One schema.Builder serves every version, so only the CREATE TABLE
// statements a version changed are built (building every version from
// an empty schema took 39,167), and a pooled parser parses each version
// without allocating (allocating parse: 14,837).
const schemaHistoryBudget = 4500 // measured 3,578

func TestSchemaHistoryAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting is distorted under the race detector")
	}
	cfg := DefaultConfig(2023)
	p, err := generateFresh(cfg, cfg.Profiles[len(cfg.Profiles)-1], 192)
	if err != nil {
		t.Fatal(err)
	}
	fvs := p.Repo.FileVersions(p.DDLPath)
	n := mallocs(t, func() error {
		_, err := history.ExtractSchemaHistoryFromVersions(p.DDLPath, fvs, history.DefaultOptions())
		return err
	})
	if n > schemaHistoryBudget {
		t.Errorf("schema history of %s (%d versions) allocates %d, budget %d", p.Name, len(fvs), n, schemaHistoryBudget)
	} else {
		t.Logf("schema history of %s (%d versions): %d allocs", p.Name, len(fvs), n)
	}
}

// mallocs counts the heap allocations of one call of f at GOMAXPROCS 1,
// like testing.AllocsPerRun but without its warm-up call, which would
// leave memoized state behind.
func mallocs(t *testing.T, f func() error) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs
}
