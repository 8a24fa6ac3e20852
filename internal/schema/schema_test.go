package schema

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"coevo/internal/sqlddl"
)

func build(t *testing.T, src string) *Schema {
	t.Helper()
	s, rep := ParseAndBuildDialect(src, sqlddl.Generic)
	for _, d := range rep.Diags {
		t.Fatalf("ParseAndBuildDialect(%q): %v", src, d)
	}
	return s
}

// parseStatements parses well-formed DDL into its statements.
func parseStatements(t *testing.T, src string) []sqlddl.Statement {
	t.Helper()
	script, diags := sqlddl.ParseWithDiagnostics(src, sqlddl.Generic)
	for _, d := range diags {
		t.Fatalf("ParseWithDiagnostics(%q): %v", src, d)
	}
	return script.Statements
}

// applyErrors replays src against an empty schema through Apply, which
// keeps the sentinel errors that BuildDialect flattens into semantic
// diagnostics.
func applyErrors(t *testing.T, src string) []error {
	t.Helper()
	s := New()
	var errs []error
	for _, stmt := range parseStatements(t, src) {
		errs = append(errs, s.Apply(stmt)...)
	}
	return errs
}

func TestBuildBasic(t *testing.T) {
	s := build(t, `
		CREATE TABLE users (
			id INT NOT NULL AUTO_INCREMENT,
			email VARCHAR(255) NOT NULL,
			PRIMARY KEY (id)
		);
		CREATE TABLE posts (
			id SERIAL PRIMARY KEY,
			user_id INT REFERENCES users(id),
			body TEXT
		);`)
	if s.TableCount() != 2 {
		t.Fatalf("TableCount = %d, want 2", s.TableCount())
	}
	if s.AttributeCount() != 5 {
		t.Errorf("AttributeCount = %d, want 5", s.AttributeCount())
	}
	users, ok := s.Table("USERS") // case-insensitive lookup
	if !ok {
		t.Fatal("users table missing")
	}
	if !users.InPrimaryKey("id") || users.InPrimaryKey("email") {
		t.Errorf("users pk = %v", users.PrimaryKey())
	}
	posts, _ := s.Table("posts")
	if !posts.InPrimaryKey("id") {
		t.Errorf("posts inline pk not registered: %v", posts.PrimaryKey())
	}
	idAttr, _ := posts.Attribute("id")
	if !idAttr.AutoIncrement {
		t.Error("SERIAL should imply auto-increment")
	}
}

func TestApplyAlterLifecycle(t *testing.T) {
	s := build(t, `
		CREATE TABLE t (a INT, b VARCHAR(10));
		ALTER TABLE t ADD COLUMN c TEXT NOT NULL;
		ALTER TABLE t DROP COLUMN b;
		ALTER TABLE t MODIFY COLUMN a BIGINT;
		ALTER TABLE t CHANGE COLUMN c c2 TEXT;
		ALTER TABLE t RENAME COLUMN c2 TO c3;
		ALTER TABLE t ADD CONSTRAINT pk PRIMARY KEY (a);`)
	tab, _ := s.Table("t")
	var names []string
	for _, a := range tab.Attributes() {
		names = append(names, a.Name)
	}
	if !reflect.DeepEqual(names, []string{"a", "c3"}) {
		t.Errorf("attributes = %v, want [a c3]", names)
	}
	a, _ := tab.Attribute("a")
	if a.Type != "BIGINT" {
		t.Errorf("a.Type = %q", a.Type)
	}
	if !tab.InPrimaryKey("a") {
		t.Errorf("pk = %v", tab.PrimaryKey())
	}
}

func TestDropColumnLeavesPrimaryKey(t *testing.T) {
	s := build(t, `
		CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b));
		ALTER TABLE t DROP COLUMN b;`)
	tab, _ := s.Table("t")
	if !reflect.DeepEqual(tab.PrimaryKey(), []string{"a"}) {
		t.Errorf("pk = %v, want [a]", tab.PrimaryKey())
	}
}

func TestDropAndRenameTable(t *testing.T) {
	s := build(t, `
		CREATE TABLE a (x INT);
		CREATE TABLE b (y INT);
		DROP TABLE a;
		RENAME TABLE b TO c;`)
	if _, ok := s.Table("a"); ok {
		t.Error("a should be dropped")
	}
	if _, ok := s.Table("b"); ok {
		t.Error("b should be renamed away")
	}
	if _, ok := s.Table("c"); !ok {
		t.Error("c missing after rename")
	}
}

func TestAlterRenameTo(t *testing.T) {
	s := build(t, `
		CREATE TABLE old_name (x INT);
		ALTER TABLE old_name RENAME TO new_name;`)
	if _, ok := s.Table("new_name"); !ok {
		t.Error("rename-to failed")
	}
}

func TestPostgresAlterColumnForms(t *testing.T) {
	s := build(t, `
		CREATE TABLE t (a VARCHAR(10), b INT);
		ALTER TABLE t ALTER COLUMN a TYPE TEXT;
		ALTER TABLE t ALTER COLUMN b SET NOT NULL;
		ALTER TABLE t ALTER COLUMN b SET DEFAULT 7;`)
	tab, _ := s.Table("t")
	a, _ := tab.Attribute("a")
	if a.Type != "TEXT" {
		t.Errorf("a.Type = %q", a.Type)
	}
	b, _ := tab.Attribute("b")
	if !b.NotNull || !b.HasDefault {
		t.Errorf("b = %+v", b)
	}
}

func TestDiagnosticsForMissingObjects(t *testing.T) {
	errs := applyErrors(t, `
		ALTER TABLE missing ADD COLUMN a INT;
		DROP TABLE also_missing;`)
	if len(errs) != 2 {
		t.Fatalf("errs = %v, want 2 diagnostics", errs)
	}
	if !errors.Is(errs[0], ErrNoSuchTable) || !errors.Is(errs[1], ErrNoSuchTable) {
		t.Errorf("errs = %v", errs)
	}
}

func TestIfExistsSuppressesDiagnostics(t *testing.T) {
	_, rep := ParseAndBuildDialect(`
		DROP TABLE IF EXISTS missing;
		ALTER TABLE IF EXISTS missing ADD COLUMN a INT;`, sqlddl.Generic)
	if !rep.Clean() {
		t.Errorf("report = %+v, want clean", rep)
	}
}

func TestRedefinedTableLastWins(t *testing.T) {
	s := build(t, `
		CREATE TABLE t (a INT);
		CREATE TABLE t (a INT, b INT, c INT);`)
	tab, _ := s.Table("t")
	if len(tab.Attributes()) != 3 {
		t.Errorf("redefined table has %d attributes, want 3", len(tab.Attributes()))
	}
}

func TestCreateIfNotExistsKeepsOriginal(t *testing.T) {
	s := build(t, `
		CREATE TABLE t (a INT);
		CREATE TABLE IF NOT EXISTS t (a INT, b INT);`)
	tab, _ := s.Table("t")
	if len(tab.Attributes()) != 1 {
		t.Errorf("IF NOT EXISTS should keep original, got %d attrs", len(tab.Attributes()))
	}
}

func TestTemporaryTablesExcluded(t *testing.T) {
	s := build(t, "CREATE TEMPORARY TABLE scratch (a INT);")
	if s.TableCount() != 0 {
		t.Errorf("temporary table should not enter the logical schema")
	}
}

func TestNormalizeTypeSynonyms(t *testing.T) {
	cases := []struct {
		a, b string
	}{
		{"CREATE TABLE t (x INTEGER);", "CREATE TABLE t (x INT);"},
		{"CREATE TABLE t (x BOOL);", "CREATE TABLE t (x BOOLEAN);"},
		{"CREATE TABLE t (x CHARACTER VARYING(5));", "CREATE TABLE t (x VARCHAR(5));"},
		{"CREATE TABLE t (x NUMERIC(8,2));", "CREATE TABLE t (x DECIMAL(8,2));"},
		{"CREATE TABLE t (x TIMESTAMPTZ);", "CREATE TABLE t (x TIMESTAMP WITH TIME ZONE);"},
	}
	for _, tc := range cases {
		sa, sb := build(t, tc.a), build(t, tc.b)
		ta, _ := sa.Table("t")
		tb, _ := sb.Table("t")
		xa, _ := ta.Attribute("x")
		xb, _ := tb.Attribute("x")
		if xa.Type != xb.Type {
			t.Errorf("%q vs %q: types %q != %q", tc.a, tc.b, xa.Type, xb.Type)
		}
	}
}

func TestNormalizeTypeDistinguishesArgs(t *testing.T) {
	sa := build(t, "CREATE TABLE t (x VARCHAR(10));")
	sb := build(t, "CREATE TABLE t (x VARCHAR(20));")
	ta, _ := sa.Table("t")
	tb, _ := sb.Table("t")
	xa, _ := ta.Attribute("x")
	xb, _ := tb.Attribute("x")
	if xa.Type == xb.Type {
		t.Error("VARCHAR(10) and VARCHAR(20) should differ")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := build(t, "CREATE TABLE t (a INT, PRIMARY KEY (a));")
	c := s.Clone()
	// Mutate the clone through DDL; the original must be unaffected.
	for _, stmt := range parseStatements(t, "ALTER TABLE t ADD COLUMN b TEXT; ALTER TABLE t DROP PRIMARY KEY;") {
		c.Apply(stmt)
	}
	origT, _ := s.Table("t")
	cloneT, _ := c.Table("t")
	if len(origT.Attributes()) != 1 || len(cloneT.Attributes()) != 2 {
		t.Errorf("attr counts: orig %d clone %d", len(origT.Attributes()), len(cloneT.Attributes()))
	}
	if !origT.InPrimaryKey("a") {
		t.Error("original pk mutated through clone")
	}
}

func TestSortedTableNames(t *testing.T) {
	s := build(t, "CREATE TABLE zeta (a INT); CREATE TABLE Alpha (a INT);")
	if got := s.SortedTableNames(); !reflect.DeepEqual(got, []string{"alpha", "zeta"}) {
		t.Errorf("SortedTableNames = %v", got)
	}
}

func TestDuplicateColumnDiagnostic(t *testing.T) {
	errs := applyErrors(t, "CREATE TABLE t (a INT, a TEXT);")
	found := false
	for _, err := range errs {
		if errors.Is(err, ErrColumnExists) {
			found = true
		}
	}
	if !found {
		t.Errorf("errs = %v, want ErrColumnExists", errs)
	}
}

// Property: applying N ADD COLUMN statements to an empty table yields
// exactly N attributes, in order, regardless of the names chosen (as long
// as they are unique).
func TestQuickAddColumnsOrdered(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n%30) + 1
		var b strings.Builder
		b.WriteString("CREATE TABLE t (seed INT);")
		for i := 0; i < count; i++ {
			fmt.Fprintf(&b, "ALTER TABLE t ADD COLUMN col_%d INT;", i)
		}
		s, rep := ParseAndBuildDialect(b.String(), sqlddl.Generic)
		if !rep.Clean() {
			return false
		}
		tab, ok := s.Table("t")
		if !ok || len(tab.Attributes()) != count+1 {
			return false
		}
		for i := 0; i < count; i++ {
			if tab.Attributes()[i+1].Name != fmt.Sprintf("col_%d", i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: add-then-drop of the same column is an identity on attribute
// count, and lookups never dangle after arbitrary drop orders.
func TestQuickDropConsistency(t *testing.T) {
	f := func(drops []uint8) bool {
		src := "CREATE TABLE t (c0 INT, c1 INT, c2 INT, c3 INT, c4 INT, c5 INT, c6 INT, c7 INT);"
		s := build(t, src)
		alive := map[string]bool{}
		for i := 0; i < 8; i++ {
			alive[fmt.Sprintf("c%d", i)] = true
		}
		for _, d := range drops {
			name := fmt.Sprintf("c%d", int(d)%8)
			s.Apply(parseStatements(t, "ALTER TABLE t DROP COLUMN "+name+";")[0])
			delete(alive, name)
		}
		// Apply copies a built table before changing it, so look the
		// table up after the drops.
		tab, _ := s.Table("t")
		if len(tab.Attributes()) != len(alive) {
			return false
		}
		for name := range alive {
			if _, ok := tab.Attribute(name); !ok {
				return false
			}
		}
		for _, a := range tab.Attributes() {
			if !alive[a.Name] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
