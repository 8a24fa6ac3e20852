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

// createDDL is a CREATE-only schema version, the shape of the versions a
// study parses: parameterized, ENUM and multi-word types, inline and
// table-level keys and foreign keys.
const createDDL = `CREATE TABLE users (
  id BIGINT NOT NULL AUTO_INCREMENT,
  email VARCHAR(255) NOT NULL,
  balance DECIMAL(10,2) UNSIGNED,
  rating DOUBLE PRECISION,
  status ENUM('active','blocked') NOT NULL,
  nick CHARACTER VARYING(32),
  seen TIMESTAMP(3) WITH TIME ZONE,
  PRIMARY KEY (id),
  UNIQUE KEY uniq_email (email)
);

CREATE TABLE orders (
  id BIGINT NOT NULL,
  user_id BIGINT NOT NULL REFERENCES users (id),
  total NUMERIC(12,4),
  PRIMARY KEY (id, user_id),
  KEY idx_user (user_id),
  CONSTRAINT fk_user FOREIGN KEY (user_id) REFERENCES users (id) ON DELETE CASCADE
);
`

// The allocation budgets of the reusable hot path, in average allocations
// per operation after warm-up. Lexing into the token slab and parsing
// CREATE TABLE statements must be allocation-free: every AST slice is cut
// from a parser-owned slab, and names, type arguments and key columns
// alias the input. allocDDL's DEFAULT texts and ALTER actions (boxed
// into AlterAction) still allocate. Rendering a type with arguments is
// one allocation.
const (
	lexBudget    = 0
	parseBudget  = 6 // measured 4: two DEFAULT texts, two boxed ALTER actions
	createBudget = 0
	stringBudget = 1
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

func TestPooledCreateParseAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun accounting is distorted under the race detector")
	}
	parse := func() {
		script, diags, release := ParseWithDiagnosticsPooled(createDDL, Generic)
		if len(diags) > 0 || len(script.Statements) != 2 {
			t.Fatalf("parse: %d statements, diagnostics %v", len(script.Statements), diags)
		}
		release()
	}
	for i := 0; i < 4; i++ {
		parse()
	}
	if avg := testing.AllocsPerRun(200, parse); avg > createBudget {
		t.Errorf("a pooled parse of a CREATE-only version allocates %.1f/op, budget %d", avg, createBudget)
	}
}

func TestDataTypeStringAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun accounting is distorted under the race detector")
	}
	dt := DataType{Name: "DECIMAL", Args: []string{"10", "2"}, Unsigned: true}
	var got string
	avg := testing.AllocsPerRun(200, func() { got = dt.String() })
	if got != "DECIMAL(10,2) UNSIGNED" {
		t.Fatalf("String() = %q", got)
	}
	if avg > stringBudget {
		t.Errorf("rendering %s allocates %.1f/op, budget %d", got, avg, stringBudget)
	}
}

func BenchmarkParseReuse(b *testing.B) {
	p := NewParser()
	warm(p, allocDDL)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.ParseWithDiagnostics(allocDDL, Generic)
	}
}
