package sqlddl

import (
	"testing"

	"coevo/internal/race"
)

// allocDDL is a representative corpus-style schema version: several CREATE
// TABLEs with mixed types, constraints, and a trailing ALTER/DROP — the
// statement mix the mining hot path parses thousands of times per study.
const allocDDL = `CREATE TABLE users (
  id BIGINT NOT NULL,
  email VARCHAR(255) NOT NULL,
  created_at TIMESTAMP DEFAULT CURRENT_TIMESTAMP,
  PRIMARY KEY (id)
);

CREATE TABLE orders (
  id BIGINT NOT NULL,
  user_id BIGINT NOT NULL,
  total DECIMAL(10,2),
  status VARCHAR(32) DEFAULT 'open',
  PRIMARY KEY (id),
  FOREIGN KEY (user_id) REFERENCES users (id)
);

CREATE INDEX idx_orders_user ON orders (user_id);

ALTER TABLE orders ADD COLUMN note TEXT;
ALTER TABLE users MODIFY COLUMN email VARCHAR(320) NOT NULL;

DROP TABLE IF EXISTS legacy_audit;
`

// The allocation budgets of the reusable hot path, in average allocations
// per operation after warm-up. Lexing into the token slab must be
// allocation-free; a steady-state parse may only allocate the per-column
// argument slices that the AST retains (they alias nothing reusable).
const (
	lexBudget   = 0
	parseBudget = 30 // measured 25: retained AST slices + action boxing
)

// warm runs the parser until every internal slab has reached its
// steady-state capacity.
func warm(p *Parser, src string) {
	for i := 0; i < 4; i++ {
		p.ParseWithDiagnostics(src, Generic)
	}
}

func TestLexStatementAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun accounting is distorted under the race detector")
	}
	p := NewParser()
	warm(p, allocDDL)
	avg := testing.AllocsPerRun(200, func() {
		p.Reset()
		if _, errs := p.split(allocDDL); len(errs) > 0 {
			t.Fatalf("split: %v", errs)
		}
	})
	if avg > lexBudget {
		t.Errorf("lexing one statement batch allocates %.1f/op, budget %d", avg, lexBudget)
	}
}

func TestParseDDLAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun accounting is distorted under the race detector")
	}
	p := NewParser()
	warm(p, allocDDL)
	avg := testing.AllocsPerRun(200, func() {
		script, diags := p.ParseWithDiagnostics(allocDDL, Generic)
		if len(diags) > 0 {
			t.Fatalf("parse diagnostics: %v", diags)
		}
		if len(script.Statements) == 0 {
			t.Fatal("no statements")
		}
	})
	if avg > parseBudget {
		t.Errorf("parsing one DDL version allocates %.1f/op, budget %d", avg, parseBudget)
	}
	t.Logf("parse allocs/op: %.1f", avg)
}

func BenchmarkParseReuse(b *testing.B) {
	p := NewParser()
	warm(p, allocDDL)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.ParseWithDiagnostics(allocDDL, Generic)
	}
}
