// Differential determinism tests for the reusable-parser hot path: one
// Parser reused across many generated inputs must produce exactly the AST
// that a fresh, fully-retained parse of the same input produces. Any slab
// state leaking between calls shows up as a divergence here.
package sqlddl_test

import (
	"math/rand"
	"reflect"
	"testing"

	"coevo/internal/schematest"
	"coevo/internal/sqlddl"
)

// assertScriptsMatch compares a reused- or pooled-parser result against
// the fresh reference parse of the same source: diagnostics, statement
// accounting and every statement node must be deeply equal.
func assertScriptsMatch(t *testing.T, src string, fresh, pooled *sqlddl.Script, freshDiags, pooledDiags []sqlddl.Diagnostic) {
	t.Helper()
	if !reflect.DeepEqual(freshDiags, pooledDiags) {
		t.Fatalf("diagnostics diverged:\nfresh:  %+v\npooled: %+v\nsource:\n%s", freshDiags, pooledDiags, src)
	}
	if fresh.Stats != pooled.Stats || fresh.Dialect != pooled.Dialect {
		t.Fatalf("script header diverged: fresh %v %+v, pooled %v %+v\nsource:\n%s",
			fresh.Dialect, fresh.Stats, pooled.Dialect, pooled.Stats, src)
	}
	if len(fresh.Statements) != len(pooled.Statements) {
		t.Fatalf("statement count diverged: fresh %d, pooled %d\nsource:\n%s", len(fresh.Statements), len(pooled.Statements), src)
	}
	for i := range fresh.Statements {
		if !reflect.DeepEqual(fresh.Statements[i], pooled.Statements[i]) {
			t.Fatalf("statement %d diverged:\nfresh:  %#v\npooled: %#v\nsource:\n%s", i, fresh.Statements[i], pooled.Statements[i], src)
		}
	}
}

func TestReusableParserMatchesFreshParser(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := sqlddl.NewParser()
	for i := 0; i < 300; i++ {
		src := schematest.RandomDDL(rng)
		fresh, freshDiags := sqlddl.ParseWithDiagnostics(src, sqlddl.Generic)
		pooled, pooledDiags := p.ParseWithDiagnostics(src, sqlddl.Generic)
		assertScriptsMatch(t, src, fresh, pooled, freshDiags, pooledDiags)
	}
}

// TestReusableParserNoStateLeak interleaves wildly different inputs
// through one parser — large scripts shrinking to tiny ones is where
// stale slab contents would surface if any reslice were missing.
func TestReusableParserNoStateLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := sqlddl.NewParser()
	big := schematest.RandomDDL(rng)
	inputs := []string{
		big,
		"CREATE TABLE t (a INT);",
		"",
		"-- only a comment\n",
		big,
		"DROP TABLE t;",
		"CREATE TABLE u (b VARCHAR(10), c DECIMAL(8,3), PRIMARY KEY (b));",
	}
	for round := 0; round < 5; round++ {
		for _, src := range inputs {
			fresh, freshDiags := sqlddl.ParseWithDiagnostics(src, sqlddl.Generic)
			pooled, pooledDiags := p.ParseWithDiagnostics(src, sqlddl.Generic)
			assertScriptsMatch(t, src, fresh, pooled, freshDiags, pooledDiags)
		}
	}
}

// TestPooledHelperMatchesFreshParser drives the package's own pool the
// way the mining pipeline does: parse, consume, release, repeat.
func TestPooledHelperMatchesFreshParser(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 100; i++ {
		src := schematest.RandomDDL(rng)
		fresh, freshDiags := sqlddl.ParseWithDiagnostics(src, sqlddl.Generic)
		pooled, pooledDiags, release := sqlddl.ParseWithDiagnosticsPooled(src, sqlddl.Generic)
		assertScriptsMatch(t, src, fresh, pooled, freshDiags, pooledDiags)
		release()
	}
}
