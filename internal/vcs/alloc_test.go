package vcs

import (
	"fmt"
	"testing"
	"time"

	"coevo/internal/race"
)

// commitBudget caps the average allocations of one modify-only commit:
// two tracked files staged with new content and committed. Staging
// copies into recycled buffers, blobs are carved from the arena and
// hashed into reused scratch, a single parent lives inline, and the
// Commit and its name-status list are carved from the repository's
// slabs, so what remains is amortized map, log and chunk growth (a
// Commit and a list allocated per commit took 2.0).
const commitBudget = 1 // measured 0.0

func TestCommitAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun accounting is distorted under the race detector")
	}
	r := NewRepository("alloc/commit")
	for i := 0; i < 8; i++ {
		r.StageString(fmt.Sprintf("src/file%d.go", i), "package src")
	}
	when := time.Date(2019, 3, 1, 12, 0, 0, 0, time.UTC)
	if _, err := r.Commit("init", Signature{Name: "dev", Email: "dev@example.com", When: when}); err != nil {
		t.Fatal(err)
	}
	const runs = 100
	contents := make([][]byte, 2*(runs+1))
	for i := range contents {
		contents[i] = []byte(fmt.Sprintf("package src // revision %d\n", i))
	}
	n := 0
	avg := testing.AllocsPerRun(runs, func() {
		r.Stage("src/file1.go", contents[n])
		r.Stage("src/file5.go", contents[n+1])
		n += 2
		when = when.Add(time.Hour)
		if _, err := r.Commit("work", Signature{Name: "dev", Email: "dev@example.com", When: when}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > commitBudget {
		t.Errorf("one modify-only commit allocates %.1f/op, budget %d", avg, commitBudget)
	}
	t.Logf("commit allocs/op: %.1f", avg)
}
