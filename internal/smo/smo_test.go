package smo

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"coevo/internal/schema"
	"coevo/internal/schemadiff"
	"coevo/internal/sqlddl"
)

func mustSchema(t *testing.T, src string) *schema.Schema {
	t.Helper()
	s, rep := schema.ParseAndBuildDialect(src, sqlddl.Generic)
	if !rep.Clean() {
		t.Fatalf("ParseAndBuildDialect(%q): %v", src, rep.Diags)
	}
	return s
}

func TestDeriveAndApplyRoundTrip(t *testing.T) {
	old := mustSchema(t, `
		CREATE TABLE users (id INT, email VARCHAR(255), nickname TEXT, PRIMARY KEY (id));
		CREATE TABLE sessions (token CHAR(32), user_id INT);`)
	new_ := mustSchema(t, `
		CREATE TABLE users (id BIGINT, email VARCHAR(255), created TIMESTAMP, PRIMARY KEY (id));
		CREATE TABLE audit (id INT, entry TEXT, PRIMARY KEY (id));`)

	seq := Derive(old, new_)
	if len(seq) == 0 {
		t.Fatal("expected a non-empty sequence")
	}
	applied, err := Apply(old, seq)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !Equal(applied, new_) {
		t.Errorf("apply(derive) != target:\nseq:\n%s\ndiff: %s",
			seq, schemadiff.Compare(applied, new_))
	}
}

func TestDeriveActivityMatchesDiff(t *testing.T) {
	old := mustSchema(t, "CREATE TABLE a (x INT, y TEXT); CREATE TABLE b (p INT);")
	new_ := mustSchema(t, "CREATE TABLE a (x BIGINT, z TEXT); CREATE TABLE c (q INT, r INT);")
	seq := Derive(old, new_)
	want := schemadiff.Compare(old, new_).TotalActivity()
	if got := seq.Activity(); got != want {
		t.Errorf("sequence activity %d != diff activity %d\nseq:\n%s", got, want, seq)
	}
}

func TestInvertRestoresOriginal(t *testing.T) {
	old := mustSchema(t, "CREATE TABLE t (a INT, b VARCHAR(10), PRIMARY KEY (a));")
	new_ := mustSchema(t, "CREATE TABLE t (a INT, c TEXT, PRIMARY KEY (a, c)); CREATE TABLE u (x INT);")
	seq := Derive(old, new_)
	forward, err := Apply(old, seq)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Apply(forward, seq.Invert())
	if err != nil {
		t.Fatalf("Apply(invert): %v", err)
	}
	if !Equal(back, old) {
		t.Errorf("invert did not restore original:\n%s", schemadiff.Compare(back, old))
	}
}

func TestDeriveFromNilIsCreation(t *testing.T) {
	s := mustSchema(t, "CREATE TABLE t (a INT, b INT);")
	seq := Derive(nil, s)
	if len(seq) != 1 {
		t.Fatalf("seq = %v", seq)
	}
	ct, ok := seq[0].(CreateTable)
	if !ok || len(ct.Columns) != 2 {
		t.Errorf("op = %+v", seq[0])
	}
	applied, err := Apply(nil, seq)
	if err != nil || !Equal(applied, s) {
		t.Errorf("creation from nil failed: %v", err)
	}
}

func TestDeriveIdenticalIsEmpty(t *testing.T) {
	s := mustSchema(t, "CREATE TABLE t (a INT, PRIMARY KEY (a));")
	if seq := Derive(s, s.Clone()); len(seq) != 0 {
		t.Errorf("self-derive produced %v", seq)
	}
}

func TestSQLRenderingReparses(t *testing.T) {
	old := mustSchema(t, "CREATE TABLE t (a INT, b VARCHAR(10), PRIMARY KEY (a));")
	new_ := mustSchema(t, `
		CREATE TABLE t (a INT, b TEXT, d DECIMAL(8,2), PRIMARY KEY (a));
		CREATE TABLE fresh (x INT, PRIMARY KEY (x));`)
	seq := Derive(old, new_)
	script := seq.SQL()

	// The rendered migration, applied as plain SQL to the old schema, must
	// land on the new one — forward engineering through the real parser.
	parsed, err := sqlddl.Parse(script)
	if err != nil {
		t.Fatalf("rendered SQL does not parse: %v\n%s", err, script)
	}
	combined := old.Clone()
	for _, stmt := range parsed.Statements {
		if errs := combined.Apply(stmt); len(errs) > 0 {
			t.Fatalf("rendered SQL does not apply: %v\n%s", errs[0], script)
		}
	}
	if !Equal(combined, new_) {
		t.Errorf("migration script did not reproduce target:\n%s\ndiff: %s",
			script, schemadiff.Compare(combined, new_))
	}
}

func TestOpStringsAndSQL(t *testing.T) {
	ops := []Op{
		CreateTable{Table: "t", Columns: []Column{{"a", "INT"}}, PrimaryKey: []string{"a"}},
		DropTable{Table: "t", Columns: []Column{{"a", "INT"}}},
		AddColumn{Table: "t", Column: Column{"b", "TEXT"}},
		DropColumn{Table: "t", Column: Column{"b", "TEXT"}},
		ChangeType{Table: "t", Column: "a", OldType: "INT", NewType: "BIGINT"},
		SetPrimaryKey{Table: "t", Old: []string{"a"}, New: []string{"a", "b"}},
		SetPrimaryKey{Table: "t", Old: []string{"a"}, New: nil},
	}
	for _, op := range ops {
		if op.String() == "" {
			t.Errorf("%T has empty String", op)
		}
		if !strings.Contains(SQL(op), "t") {
			t.Errorf("%T SQL missing table: %q", op, SQL(op))
		}
		if op.Activity() < 0 {
			t.Errorf("%T negative activity", op)
		}
		// Double inversion is identity at the behavioural level.
		twice := op.Invert().Invert()
		if twice.String() != op.String() {
			t.Errorf("%T double-invert drifted: %s vs %s", op, op, twice)
		}
	}
}

func TestSetPrimaryKeyActivity(t *testing.T) {
	op := SetPrimaryKey{Old: []string{"a", "b"}, New: []string{"b", "c"}}
	if op.Activity() != 2 { // a left, c joined
		t.Errorf("Activity = %d, want 2", op.Activity())
	}
	noop := SetPrimaryKey{Old: []string{"a"}, New: []string{"a"}}
	if noop.Activity() != 0 {
		t.Errorf("identical keys activity = %d", noop.Activity())
	}
}

// Property: for arbitrary generated schema pairs, Apply(old, Derive(old,
// new)) == new, the inverse restores old, and the sequence activity equals
// the diff activity.
func TestQuickDeriveApplyInvert(t *testing.T) {
	gen := func(seed uint32) *schema.Schema {
		var b strings.Builder
		nt := int(seed%3) + 1
		for i := 0; i < nt; i++ {
			fmt.Fprintf(&b, "CREATE TABLE t%d (", i)
			na := int(seed/3)%4 + 1
			for j := 0; j < na; j++ {
				if j > 0 {
					b.WriteString(", ")
				}
				ty := []string{"INT", "TEXT", "VARCHAR(7)", "BOOLEAN"}[(int(seed)+i+j)%4]
				fmt.Fprintf(&b, "c%d %s", j, ty)
			}
			if seed%2 == 0 {
				b.WriteString(", PRIMARY KEY (c0)")
			}
			b.WriteString(");")
		}
		s, _ := schema.ParseAndBuildDialect(b.String(), sqlddl.Generic)
		return s
	}
	f := func(a, b uint32) bool {
		old, target := gen(a), gen(b)
		seq := Derive(old, target)
		if seq.Activity() != schemadiff.Compare(old, target).TotalActivity() {
			return false
		}
		forward, err := Apply(old, seq)
		if err != nil || !Equal(forward, target) {
			return false
		}
		back, err := Apply(forward, seq.Invert())
		return err == nil && Equal(back, old)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
