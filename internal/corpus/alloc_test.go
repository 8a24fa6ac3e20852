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
// last commit.
const generateBudget = 900 // measured 690

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
	// One call on a fresh repository, like testing.AllocsPerRun but
	// without its warm-up call, which would leave memoized state behind.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = history.ExtractProjectHistoryWithLines(p.Repo)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.Mallocs - before.Mallocs; n > lineChurnBudget {
		t.Errorf("line churn of %s allocates %d, budget %d", p.Name, n, lineChurnBudget)
	} else {
		t.Logf("line churn of %s: %d allocs", p.Name, n)
	}
}
