package corpus

import (
	"testing"

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
