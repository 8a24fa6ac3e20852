package schemadiff

import (
	"testing"

	"coevo/internal/race"
	"coevo/internal/schema"
	"coevo/internal/sqlddl"
)

const allocOldDDL = `CREATE TABLE users (
  id BIGINT NOT NULL,
  email VARCHAR(255) NOT NULL,
  created_at TIMESTAMP,
  PRIMARY KEY (id)
);
CREATE TABLE orders (
  id BIGINT NOT NULL,
  user_id BIGINT NOT NULL,
  total DECIMAL(10,2),
  PRIMARY KEY (id)
);
CREATE TABLE legacy_audit (id INT, note TEXT);
`

const allocNewDDL = `CREATE TABLE users (
  id BIGINT NOT NULL,
  email VARCHAR(320) NOT NULL,
  created_at TIMESTAMP,
  last_seen TIMESTAMP,
  PRIMARY KEY (id)
);
CREATE TABLE orders (
  id BIGINT NOT NULL,
  user_id BIGINT NOT NULL,
  total DECIMAL(12,2),
  status VARCHAR(32),
  PRIMARY KEY (id)
);
CREATE TABLE payments (id BIGINT, order_id BIGINT);
`

// diffBudget caps the average allocations of one Compare over two
// moderately-sized schemas. Compare's working set (the survivor scan and
// per-table attribute matching) is allocation-free; what remains is the
// returned Delta and its retained change slices.
const diffBudget = 8 // measured 5: the Delta and its change slices

func mustBuild(t testing.TB, ddl string) *schema.Schema {
	t.Helper()
	s, rep := schema.ParseAndBuildDialect(ddl, sqlddl.Generic)
	if !rep.Clean() {
		t.Fatalf("build: %v", rep.Diags)
	}
	return s
}

func TestDiffAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun accounting is distorted under the race detector")
	}
	old := mustBuild(t, allocOldDDL)
	new := mustBuild(t, allocNewDDL)
	avg := testing.AllocsPerRun(200, func() {
		d := Compare(old, new)
		if len(d.Changes) == 0 {
			t.Fatal("expected changes")
		}
	})
	if avg > diffBudget {
		t.Errorf("diffing two schemas allocates %.1f/op, budget %d", avg, diffBudget)
	}
	t.Logf("diff allocs/op: %.1f", avg)
}

func BenchmarkCompareReuse(b *testing.B) {
	old := mustBuild(b, allocOldDDL)
	new := mustBuild(b, allocNewDDL)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compare(old, new)
	}
}
