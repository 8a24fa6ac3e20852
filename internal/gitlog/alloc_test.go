package gitlog_test

import (
	"bytes"
	"strings"
	"testing"

	"coevo/internal/corpus"
	"coevo/internal/gitlog"
	"coevo/internal/history"
	"coevo/internal/race"
)

// parseBudget caps the allocations of the ingest road's log half, Parse
// then history.ProjectHistoryFromLog, over a generated log whatever its
// commit count: the reader, the log's one copy and its builder, the
// entry and change slabs, the message-line scratch, and the history
// with its commit list. A scanner copying every line, splitting every
// name-status line and growing every list an append at a time took
// about 19 per commit.
const parseBudget = 10 // measured 8, at 151 commits and at 848

func TestParseAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun accounting is distorted under the race detector")
	}
	// Projects 81 and 194 of the seed-2023 corpus: 151 and 848 commits.
	for _, idx := range []int{81, 194} {
		log, commits := generatedLog(t, idx)
		if commits < 150 {
			t.Fatalf("project %d has %d commits, want at least 150", idx, commits)
		}
		avg := testing.AllocsPerRun(20, func() {
			entries, err := gitlog.Parse(strings.NewReader(log))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := history.ProjectHistoryFromLog(entries); err != nil {
				t.Fatal(err)
			}
		})
		if avg > parseBudget {
			t.Errorf("parsing a %d-commit log allocates %.1f/op, budget %d", commits, avg, parseBudget)
		}
		t.Logf("%d commits: parse allocs/op %.1f", commits, avg)
	}
}

// generatedLog renders project idx of the seed-2023 corpus as the text
// an ingest job submits, with its commit count.
func generatedLog(t *testing.T, idx int) (string, int) {
	t.Helper()
	src := corpus.NewSource(corpus.DefaultConfig(2023))
	for {
		sp, local, ok := src.Claim()
		if !ok {
			t.Fatalf("the corpus has no project %d", idx)
		}
		if local != idx {
			continue
		}
		p, err := sp.Generate()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gitlog.Emit(&buf, gitlog.FromRepository(p.Repo, true)); err != nil {
			t.Fatal(err)
		}
		return buf.String(), p.Repo.CommitCount()
	}
}
