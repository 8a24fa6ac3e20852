package sqlddl

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, src string) *Script {
	t.Helper()
	script, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return script
}

func onlyCreate(t *testing.T, src string) *CreateTable {
	t.Helper()
	script := mustParse(t, src)
	cts := script.CreateTables()
	if len(cts) != 1 {
		t.Fatalf("want exactly 1 CREATE TABLE, got %d in %q", len(cts), src)
	}
	return cts[0]
}

func TestCreateTableBasic(t *testing.T) {
	ct := onlyCreate(t, `CREATE TABLE users (
		id INT NOT NULL AUTO_INCREMENT,
		name VARCHAR(255) NOT NULL DEFAULT 'anon',
		balance DECIMAL(10,2) UNSIGNED,
		created TIMESTAMP DEFAULT CURRENT_TIMESTAMP,
		PRIMARY KEY (id)
	);`)
	if ct.Name.Name != "users" {
		t.Errorf("name = %q", ct.Name.Name)
	}
	if len(ct.Columns) != 4 {
		t.Fatalf("columns = %d, want 4", len(ct.Columns))
	}
	id := ct.Columns[0]
	if id.Name != "id" || id.Type.Name != "INT" || !id.NotNull || !id.AutoIncrement {
		t.Errorf("id column = %+v", id)
	}
	name := ct.Columns[1]
	if name.Type.Name != "VARCHAR" || !reflect.DeepEqual(name.Type.Args, []string{"255"}) {
		t.Errorf("name type = %+v", name.Type)
	}
	if !name.HasDefault || name.Default != "'anon'" {
		t.Errorf("name default = %q (has=%v)", name.Default, name.HasDefault)
	}
	bal := ct.Columns[2]
	if bal.Type.Name != "DECIMAL" || !bal.Type.Unsigned || !reflect.DeepEqual(bal.Type.Args, []string{"10", "2"}) {
		t.Errorf("balance type = %+v", bal.Type)
	}
	created := ct.Columns[3]
	if created.Default != "CURRENT_TIMESTAMP" {
		t.Errorf("created default = %q", created.Default)
	}
	if len(ct.Constraints) != 1 || ct.Constraints[0].Kind != ConstraintPrimaryKey {
		t.Fatalf("constraints = %+v", ct.Constraints)
	}
	if !reflect.DeepEqual(ct.Constraints[0].Columns, []string{"id"}) {
		t.Errorf("pk columns = %v", ct.Constraints[0].Columns)
	}
}

func TestCreateTableQuotingStyles(t *testing.T) {
	cases := []string{
		"CREATE TABLE `my table` (`weird col` int);",
		`CREATE TABLE "my table" ("weird col" int);`,
		"CREATE TABLE [my table] ([weird col] int);",
	}
	for _, src := range cases {
		ct := onlyCreate(t, src)
		if ct.Name.Name != "my table" {
			t.Errorf("%q: table name = %q", src, ct.Name.Name)
		}
		if len(ct.Columns) != 1 || ct.Columns[0].Name != "weird col" {
			t.Errorf("%q: columns = %+v", src, ct.Columns)
		}
	}
}

func TestCreateTableQualifiedName(t *testing.T) {
	ct := onlyCreate(t, "CREATE TABLE public.users (id int);")
	if ct.Name.Schema != "public" || ct.Name.Name != "users" {
		t.Errorf("name = %+v", ct.Name)
	}
}

func TestCreateTableIfNotExistsAndTemporary(t *testing.T) {
	ct := onlyCreate(t, "CREATE TEMPORARY TABLE IF NOT EXISTS t (a int);")
	if !ct.IfNotExists || !ct.Temporary {
		t.Errorf("flags = ifNotExists:%v temporary:%v", ct.IfNotExists, ct.Temporary)
	}
}

func TestCreateTableInlineConstraints(t *testing.T) {
	ct := onlyCreate(t, `CREATE TABLE orders (
		id SERIAL PRIMARY KEY,
		code CHAR(8) UNIQUE,
		user_id INT REFERENCES users(id) ON DELETE CASCADE ON UPDATE SET NULL,
		note TEXT CHECK (length(note) > 0)
	);`)
	if !ct.Columns[0].PrimaryKey {
		t.Error("id should be inline primary key")
	}
	if !ct.Columns[1].Unique {
		t.Error("code should be unique")
	}
	ref := ct.Columns[2].References
	if ref == nil || ref.Table.Name != "users" || !reflect.DeepEqual(ref.Columns, []string{"id"}) {
		t.Fatalf("references = %+v", ref)
	}
	if ref.OnDelete != "CASCADE" || ref.OnUpdate != "SET NULL" {
		t.Errorf("actions = %q/%q", ref.OnDelete, ref.OnUpdate)
	}
}

func TestCreateTableTableConstraints(t *testing.T) {
	ct := onlyCreate(t, `CREATE TABLE t (
		a INT,
		b INT,
		c VARCHAR(40),
		CONSTRAINT pk_t PRIMARY KEY (a, b),
		UNIQUE KEY uniq_c (c),
		KEY idx_b (b),
		CONSTRAINT fk_b FOREIGN KEY (b) REFERENCES other (x) ON DELETE RESTRICT,
		CHECK (a > 0)
	);`)
	if len(ct.Constraints) != 5 {
		t.Fatalf("constraints = %d: %+v", len(ct.Constraints), ct.Constraints)
	}
	pk := ct.Constraints[0]
	if pk.Kind != ConstraintPrimaryKey || pk.Name != "pk_t" || !reflect.DeepEqual(pk.Columns, []string{"a", "b"}) {
		t.Errorf("pk = %+v", pk)
	}
	uq := ct.Constraints[1]
	if uq.Kind != ConstraintUnique || uq.Name != "uniq_c" || !reflect.DeepEqual(uq.Columns, []string{"c"}) {
		t.Errorf("unique = %+v", uq)
	}
	if ct.Constraints[2].Kind != ConstraintIndex {
		t.Errorf("index = %+v", ct.Constraints[2])
	}
	fk := ct.Constraints[3]
	if fk.Kind != ConstraintForeignKey || fk.Ref == nil || fk.Ref.Table.Name != "other" || fk.Ref.OnDelete != "RESTRICT" {
		t.Errorf("fk = %+v", fk)
	}
	ck := ct.Constraints[4]
	if ck.Kind != ConstraintCheck || !strings.Contains(ck.Check, "a") {
		t.Errorf("check = %+v", ck)
	}
}

func TestColumnNamedKey(t *testing.T) {
	// "key" used as a column name must not be mistaken for an index.
	ct := onlyCreate(t, "CREATE TABLE kv (key VARCHAR(9), value TEXT);")
	if len(ct.Columns) != 2 || ct.Columns[0].Name != "key" {
		t.Errorf("columns = %+v", ct.Columns)
	}
	if len(ct.Constraints) != 0 {
		t.Errorf("constraints = %+v", ct.Constraints)
	}
}

func TestMultiWordTypes(t *testing.T) {
	cases := map[string]string{
		"CREATE TABLE t (a DOUBLE PRECISION);":            "DOUBLE PRECISION",
		"CREATE TABLE t (a CHARACTER VARYING(10));":       "CHARACTER VARYING",
		"CREATE TABLE t (a TIMESTAMP WITH TIME ZONE);":    "TIMESTAMP WITH TIME ZONE",
		"CREATE TABLE t (a TIME(3) WITHOUT TIME ZONE);":   "TIME WITHOUT TIME ZONE",
		"CREATE TABLE t (a NATIONAL CHARACTER VARYING);":  "NATIONAL CHARACTER VARYING",
		"CREATE TABLE t (a timestamp without time zone);": "TIMESTAMP WITHOUT TIME ZONE",
	}
	for src, wantType := range cases {
		ct := onlyCreate(t, src)
		if got := ct.Columns[0].Type.Name; got != wantType {
			t.Errorf("%q: type = %q, want %q", src, got, wantType)
		}
	}
}

func TestEnumAndSetTypes(t *testing.T) {
	ct := onlyCreate(t, "CREATE TABLE t (status ENUM('open','closed','don''t'), flags SET('a','b'));")
	status := ct.Columns[0].Type
	if status.Name != "ENUM" || !reflect.DeepEqual(status.Args, []string{"'open'", "'closed'", "'don't'"}) {
		t.Errorf("enum = %+v", status)
	}
}

func TestArrayTypes(t *testing.T) {
	ct := onlyCreate(t, "CREATE TABLE t (tags TEXT[], nums INT ARRAY, grid INT[3]);")
	for i, col := range ct.Columns {
		if !col.Type.Array {
			t.Errorf("column %d (%s) should be array: %+v", i, col.Name, col.Type)
		}
	}
}

func TestPostgresDollarQuotedDefaultsSkipped(t *testing.T) {
	// Dollar-quoted strings appear in function bodies; the statement is
	// skipped but must not derail statement splitting.
	script := mustParse(t, `CREATE FUNCTION f() RETURNS trigger AS $$
		BEGIN RETURN NEW; END; -- has ; inside? no, dollar-quote protects nothing here
	$$ LANGUAGE plpgsql;
	CREATE TABLE t (a int);`)
	if len(script.CreateTables()) != 1 {
		t.Fatalf("CREATE TABLE after function not found: %d statements", len(script.Statements))
	}
}

func TestCommentsEverywhere(t *testing.T) {
	ct := onlyCreate(t, `-- leading comment
	# mysql comment
	/* block
	   comment */
	CREATE TABLE t ( -- trailing
		a int, /* inline */ b int
	);`)
	if len(ct.Columns) != 2 {
		t.Errorf("columns = %+v", ct.Columns)
	}
}

func TestSkippedStatements(t *testing.T) {
	script := mustParse(t, `SET NAMES utf8;
	INSERT INTO t VALUES (1, 'a;b');
	CREATE INDEX idx ON t (a);
	CREATE TABLE t2 (x int);
	DROP PROCEDURE IF EXISTS p;`)
	var skipped []string
	for _, st := range script.Statements {
		if s, ok := st.(*SkippedStatement); ok {
			skipped = append(skipped, s.Keyword)
		}
	}
	want := []string{"SET", "INSERT", "CREATE", "DROP"}
	if !reflect.DeepEqual(skipped, want) {
		t.Errorf("skipped = %v, want %v", skipped, want)
	}
	if len(script.CreateTables()) != 1 {
		t.Errorf("CreateTables = %d, want 1", len(script.CreateTables()))
	}
}

func TestStatementWithSemicolonInString(t *testing.T) {
	script := mustParse(t, `INSERT INTO t VALUES ('a;b;c'); CREATE TABLE x (y int);`)
	if len(script.Statements) != 2 {
		t.Fatalf("statements = %d, want 2", len(script.Statements))
	}
}

func TestDropTable(t *testing.T) {
	script := mustParse(t, "DROP TABLE IF EXISTS a, b CASCADE;")
	dt, ok := script.Statements[0].(*DropTable)
	if !ok {
		t.Fatalf("statement = %T", script.Statements[0])
	}
	if !dt.IfExists || len(dt.Names) != 2 || dt.Names[0].Name != "a" || dt.Names[1].Name != "b" {
		t.Errorf("drop = %+v", dt)
	}
}

func TestRenameTable(t *testing.T) {
	script := mustParse(t, "RENAME TABLE old1 TO new1, old2 TO new2;")
	rt, ok := script.Statements[0].(*RenameTable)
	if !ok {
		t.Fatalf("statement = %T", script.Statements[0])
	}
	if len(rt.Renames) != 2 || rt.Renames[0].From.Name != "old1" || rt.Renames[1].To.Name != "new2" {
		t.Errorf("renames = %+v", rt.Renames)
	}
}

func TestAlterTableAddDropColumns(t *testing.T) {
	script := mustParse(t, `ALTER TABLE t
		ADD COLUMN a INT NOT NULL DEFAULT 0,
		ADD b VARCHAR(10) AFTER a,
		DROP COLUMN c,
		DROP d CASCADE;`)
	at := script.Statements[0].(*AlterTable)
	if len(at.Actions) != 4 {
		t.Fatalf("actions = %d: %+v", len(at.Actions), at.Actions)
	}
	add1 := at.Actions[0].(AddColumn)
	if add1.Column.Name != "a" || !add1.Column.NotNull || add1.Column.Default != "0" {
		t.Errorf("add1 = %+v", add1)
	}
	add2 := at.Actions[1].(AddColumn)
	if add2.Column.Name != "b" {
		t.Errorf("add2 = %+v", add2)
	}
	if d, ok := at.Actions[2].(DropColumn); !ok || d.Name != "c" {
		t.Errorf("drop1 = %+v", at.Actions[2])
	}
	if d, ok := at.Actions[3].(DropColumn); !ok || d.Name != "d" {
		t.Errorf("drop2 = %+v", at.Actions[3])
	}
}

func TestAlterTableModifyChangeRename(t *testing.T) {
	script := mustParse(t, `ALTER TABLE t
		MODIFY COLUMN a BIGINT UNSIGNED,
		CHANGE COLUMN b b2 TEXT,
		RENAME COLUMN c TO c2,
		RENAME TO t2;`)
	at := script.Statements[0].(*AlterTable)
	m := at.Actions[0].(ModifyColumn)
	if m.Column.Name != "a" || m.Column.Type.Name != "BIGINT" || !m.Column.Type.Unsigned {
		t.Errorf("modify = %+v", m)
	}
	ch := at.Actions[1].(ChangeColumn)
	if ch.OldName != "b" || ch.Column.Name != "b2" || ch.Column.Type.Name != "TEXT" {
		t.Errorf("change = %+v", ch)
	}
	rc := at.Actions[2].(RenameColumn)
	if rc.OldName != "c" || rc.NewName != "c2" {
		t.Errorf("rename col = %+v", rc)
	}
	rt := at.Actions[3].(RenameTo)
	if rt.NewName.Name != "t2" {
		t.Errorf("rename to = %+v", rt)
	}
}

func TestAlterTablePostgresColumnForms(t *testing.T) {
	script := mustParse(t, `ALTER TABLE ONLY public.t
		ALTER COLUMN a TYPE NUMERIC(12,4),
		ALTER COLUMN b SET NOT NULL,
		ALTER COLUMN c DROP NOT NULL,
		ALTER COLUMN d SET DEFAULT now(),
		ALTER COLUMN e DROP DEFAULT;`)
	at := script.Statements[0].(*AlterTable)
	ty := at.Actions[0].(AlterColumnType)
	if ty.Name != "a" || ty.Type.Name != "NUMERIC" || !reflect.DeepEqual(ty.Type.Args, []string{"12", "4"}) {
		t.Errorf("type = %+v", ty)
	}
	if n := at.Actions[1].(AlterColumnNullability); !n.NotNull || n.Name != "b" {
		t.Errorf("set not null = %+v", n)
	}
	if n := at.Actions[2].(AlterColumnNullability); n.NotNull || n.Name != "c" {
		t.Errorf("drop not null = %+v", n)
	}
	if d := at.Actions[3].(AlterColumnDefault); d.Drop || d.Name != "d" || d.Default != "NOW()" {
		t.Errorf("set default = %+v", d)
	}
	if d := at.Actions[4].(AlterColumnDefault); !d.Drop || d.Name != "e" {
		t.Errorf("drop default = %+v", d)
	}
}

func TestAlterTableConstraints(t *testing.T) {
	script := mustParse(t, `ALTER TABLE t
		ADD CONSTRAINT pk PRIMARY KEY (id),
		ADD UNIQUE (code),
		ADD CONSTRAINT fk FOREIGN KEY (uid) REFERENCES users (id),
		DROP PRIMARY KEY,
		DROP FOREIGN KEY fk_old,
		DROP CONSTRAINT chk,
		DROP INDEX idx;`)
	at := script.Statements[0].(*AlterTable)
	if len(at.Actions) != 7 {
		t.Fatalf("actions = %d", len(at.Actions))
	}
	if a := at.Actions[0].(AddConstraint); a.Constraint.Kind != ConstraintPrimaryKey || a.Constraint.Name != "pk" {
		t.Errorf("add pk = %+v", a)
	}
	if a := at.Actions[1].(AddConstraint); a.Constraint.Kind != ConstraintUnique {
		t.Errorf("add unique = %+v", a)
	}
	if a := at.Actions[2].(AddConstraint); a.Constraint.Kind != ConstraintForeignKey || a.Constraint.Ref.Table.Name != "users" {
		t.Errorf("add fk = %+v", a)
	}
	if d := at.Actions[3].(DropConstraint); d.Kind != ConstraintPrimaryKey {
		t.Errorf("drop pk = %+v", d)
	}
	if d := at.Actions[4].(DropConstraint); d.Kind != ConstraintForeignKey || d.Name != "fk_old" {
		t.Errorf("drop fk = %+v", d)
	}
	if d := at.Actions[5].(DropConstraint); d.Name != "chk" {
		t.Errorf("drop constraint = %+v", d)
	}
	if d := at.Actions[6].(DropConstraint); d.Kind != ConstraintIndex || d.Name != "idx" {
		t.Errorf("drop index = %+v", d)
	}
}

func TestAlterTableUnknownActionPreserved(t *testing.T) {
	script := mustParse(t, "ALTER TABLE t ENGINE=InnoDB, ADD COLUMN a int;")
	at := script.Statements[0].(*AlterTable)
	if len(at.Actions) != 2 {
		t.Fatalf("actions = %+v", at.Actions)
	}
	if _, ok := at.Actions[0].(UnknownAction); !ok {
		t.Errorf("first action = %T, want UnknownAction", at.Actions[0])
	}
	if _, ok := at.Actions[1].(AddColumn); !ok {
		t.Errorf("second action = %T, want AddColumn", at.Actions[1])
	}
}

func TestCreateTableAsSelect(t *testing.T) {
	ct := onlyCreate(t, "CREATE TABLE t AS SELECT * FROM other;")
	if !ct.AsSelect {
		t.Error("AsSelect not set")
	}
}

func TestGeneratedColumns(t *testing.T) {
	ct := onlyCreate(t, `CREATE TABLE t (
		id INT GENERATED ALWAYS AS IDENTITY,
		total NUMERIC GENERATED ALWAYS AS (a + b) STORED
	);`)
	if !ct.Columns[0].AutoIncrement {
		t.Error("identity column should be auto-increment")
	}
	if len(ct.Columns) != 2 {
		t.Errorf("columns = %+v", ct.Columns)
	}
}

func TestMySQLDumpTableOptions(t *testing.T) {
	ct := onlyCreate(t, "CREATE TABLE t (a int) ENGINE=InnoDB AUTO_INCREMENT=5 DEFAULT CHARSET=utf8mb4 COLLATE=utf8mb4_unicode_ci COMMENT='the table';")
	if len(ct.Columns) != 1 {
		t.Errorf("columns = %+v", ct.Columns)
	}
}

func TestParseStrictErrors(t *testing.T) {
	cases := []string{
		"CREATE TABLE (a int);",           // missing table name
		"CREATE TABLE t (a int",           // unterminated element list
		"ALTER TABLE t ADD CONSTRAINT;",   // dangling constraint
		"DROP TABLE;",                     // missing name
		"CREATE TABLE t (PRIMARY KEY a);", // malformed pk
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		} else {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Errorf("Parse(%q) err = %T, want *ParseError", src, err)
			}
		}
	}
}

func TestParseLenientDemotesBrokenStatements(t *testing.T) {
	script, diags := ParseWithDiagnostics("CREATE TABLE broken (a int; CREATE TABLE ok (b int);", Generic)
	if len(diags) == 0 {
		t.Fatal("expected diagnostics")
	}
	if script.Stats.Recovered != 1 {
		t.Errorf("Stats = %+v, want one recovered statement", script.Stats)
	}
	// The broken statement is demoted; the well-formed one survives.
	var kept int
	for _, st := range script.Statements {
		if _, ok := st.(*CreateTable); ok {
			kept++
		}
	}
	if kept != 1 {
		t.Errorf("kept %d CREATE TABLEs, want 1", kept)
	}
}

func TestLexErrors(t *testing.T) {
	cases := []string{
		"CREATE TABLE t (a int) /* unterminated",
		"INSERT INTO t VALUES ('unterminated",
		"CREATE TABLE `unterminated (a int);",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail with lex error", src)
		}
	}
}

func TestRawPreserved(t *testing.T) {
	src := "CREATE TABLE t (a int)"
	script := mustParse(t, src+";")
	if got := script.Statements[0].Raw(); got != src {
		t.Errorf("Raw() = %q, want %q", got, src)
	}
}

func TestDataTypeString(t *testing.T) {
	cases := []struct {
		dt   DataType
		want string
	}{
		{DataType{Name: "INT"}, "INT"},
		{DataType{Name: "VARCHAR", Args: []string{"255"}}, "VARCHAR(255)"},
		{DataType{Name: "DECIMAL", Args: []string{"10", "2"}, Unsigned: true}, "DECIMAL(10,2) UNSIGNED"},
		{DataType{Name: "TEXT", Array: true}, "TEXT[]"},
	}
	for _, tc := range cases {
		if got := tc.dt.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestDefaultExpressions(t *testing.T) {
	cases := map[string]string{
		"CREATE TABLE t (a INT DEFAULT -1);":                         "-1",
		"CREATE TABLE t (a INT DEFAULT (1+2));":                      "(1 + 2)",
		"CREATE TABLE t (a BIT DEFAULT b'0');":                       "B'0'",
		"CREATE TABLE t (a TEXT DEFAULT 'x'::character varying);":    "'x'::CHARACTER VARYING",
		"CREATE TABLE t (a TIMESTAMP DEFAULT CURRENT_TIMESTAMP(6));": "CURRENT_TIMESTAMP(6)",
		"CREATE TABLE t (a UUID DEFAULT uuid_generate_v4());":        "UUID_GENERATE_V4()",
	}
	for src, want := range cases {
		ct := onlyCreate(t, src)
		if got := ct.Columns[0].Default; got != want {
			t.Errorf("%q: default = %q, want %q", src, got, want)
		}
	}
}

// Property: a synthesized CREATE TABLE with n generated columns always
// parses back with exactly n columns, for arbitrary column counts and type
// picks.
func TestQuickCreateTableRoundTrip(t *testing.T) {
	types := []string{"INT", "BIGINT", "VARCHAR(255)", "TEXT", "DECIMAL(10,2)", "TIMESTAMP", "BOOLEAN", "DOUBLE PRECISION"}
	f := func(n uint8, pick uint16) bool {
		count := int(n%20) + 1
		var b strings.Builder
		b.WriteString("CREATE TABLE gen_table (\n")
		for i := 0; i < count; i++ {
			if i > 0 {
				b.WriteString(",\n")
			}
			fmt.Fprintf(&b, "  col_%d %s", i, types[(int(pick)+i)%len(types)])
			if i%3 == 0 {
				b.WriteString(" NOT NULL")
			}
		}
		b.WriteString("\n);")
		script, err := Parse(b.String())
		if err != nil {
			return false
		}
		cts := script.CreateTables()
		return len(cts) == 1 && len(cts[0].Columns) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: ParseWithDiagnostics never panics and never returns a nil
// script, no matter how garbled the input.
func TestQuickLenientNeverPanics(t *testing.T) {
	f := func(src string) bool {
		script, _ := ParseWithDiagnostics(src, Generic)
		return script != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestASTAccessors(t *testing.T) {
	if (TableName{Schema: "public", Name: "Users"}).String() != "public.Users" {
		t.Error("qualified String")
	}
	if (TableName{Name: "Users"}).Key() != "users" {
		t.Error("Key should case-fold")
	}
	if !(DataType{}).IsZero() || (DataType{Name: "INT"}).IsZero() {
		t.Error("IsZero")
	}
	kinds := []ConstraintKind{ConstraintPrimaryKey, ConstraintUnique, ConstraintForeignKey, ConstraintCheck, ConstraintIndex}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "UNKNOWN" || seen[s] {
			t.Errorf("constraint kind %d string %q", k, s)
		}
		seen[s] = true
	}
	if ConstraintKind(99).String() != "UNKNOWN" {
		t.Error("out-of-range kind")
	}
}

func TestErrorStrings(t *testing.T) {
	le := &LexError{Line: 3, Msg: "boom"}
	if !strings.Contains(le.Error(), "line 3") || !strings.Contains(le.Error(), "boom") {
		t.Errorf("LexError = %q", le.Error())
	}
	pe := &ParseError{Line: 7, Msg: "bad"}
	if !strings.Contains(pe.Error(), "line 7") {
		t.Errorf("ParseError = %q", pe.Error())
	}
}

func TestStringLiteralEscapes(t *testing.T) {
	cases := map[string]string{
		`CREATE TABLE t (a TEXT DEFAULT 'it''s');`:     "'it's'",
		`CREATE TABLE t (a TEXT DEFAULT 'back\'s');`:   "'back's'",
		`CREATE TABLE t (a TEXT DEFAULT 'tab\there');`: "'tabthere'",
	}
	for src, want := range cases {
		ct := onlyCreate(t, src)
		if got := ct.Columns[0].Default; got != want {
			t.Errorf("%q: default = %q, want %q", src, got, want)
		}
	}
}

func TestMultilineStringLiteral(t *testing.T) {
	ct := onlyCreate(t, "CREATE TABLE t (a TEXT DEFAULT 'line1\nline2');")
	if !strings.Contains(ct.Columns[0].Default, "\n") {
		t.Errorf("default = %q", ct.Columns[0].Default)
	}
}

func TestColumnOptionEdgeCases(t *testing.T) {
	// Exercise the long tail of column options in one definition.
	ct := onlyCreate(t, `CREATE TABLE t (
		a VARCHAR(20) CHARACTER SET utf8 COLLATE utf8_bin NULL,
		b INT CONSTRAINT positive CHECK (b > 0),
		c TIMESTAMP ON UPDATE CURRENT_TIMESTAMP COMMENT 'audit',
		d INT STORAGE MEMORY,
		e INT FIRST,
		f INT AFTER e,
		g BIGINT ZEROFILL
	);`)
	if len(ct.Columns) != 7 {
		t.Fatalf("columns = %d: %+v", len(ct.Columns), ct.Columns)
	}
	if !ct.Columns[0].Null {
		t.Error("explicit NULL not recorded")
	}
	if ct.Columns[2].Comment != "audit" {
		t.Errorf("comment = %q", ct.Columns[2].Comment)
	}
	if !ct.Columns[6].Type.Zerofill {
		t.Error("zerofill lost")
	}
}

func TestTokenKindStrings(t *testing.T) {
	kinds := []tokenKind{tokEOF, tokIdent, tokQuotedIdent, tokNumber, tokString, tokSymbol}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Errorf("token kind %d string %q", k, s)
		}
		seen[s] = true
	}
	if tokenKind(42).String() != "unknown" {
		t.Error("out-of-range token kind")
	}
}

func TestGeneratedVirtualColumn(t *testing.T) {
	ct := onlyCreate(t, "CREATE TABLE t (a INT, b INT GENERATED ALWAYS AS (a * 2) VIRTUAL, c INT GENERATED BY DEFAULT AS IDENTITY (START WITH 10));")
	if len(ct.Columns) != 3 {
		t.Fatalf("columns = %+v", ct.Columns)
	}
	if !ct.Columns[2].AutoIncrement {
		t.Error("identity with options should be auto-increment")
	}
}

func TestDoubleQuoteEscapeInIdentifier(t *testing.T) {
	ct := onlyCreate(t, "CREATE TABLE `odd``name` (a INT);")
	if ct.Name.Name != "odd`name" {
		t.Errorf("name = %q", ct.Name.Name)
	}
}

// argForms pins the bytes the parser reduces type arguments and key
// column lists to, edge cases included: each case is one statement and
// lists its every DataType.Args and key-column slice in source order
// (see argLists). A nil entry is a nil slice, not an empty one. The
// sources double as FuzzParseLenient seeds.
var argForms = []struct {
	dialect Dialect
	src     string
	types   []string // type name of each column of the first statement; nil skips the check
	lists   [][]string
}{
	{Generic, "CREATE TABLE t (a VARCHAR(255));", nil, [][]string{{"255"}}},
	{Generic, "CREATE TABLE t (a DECIMAL(10,2), b DECIMAL( 10 , 2 ));", nil, [][]string{{"10", "2"}, {"10", "2"}}},
	{Generic, "CREATE TABLE t (a INT());", nil, [][]string{nil}},
	{Generic, "CREATE TABLE t (a INT(,5));", nil, [][]string{{"", "5"}}},
	{Generic, "CREATE TABLE t (a INT(10,));", nil, [][]string{{"10"}}},
	{Generic, "CREATE TABLE t (a VARCHAR(255 BYTE));", nil, [][]string{{"255BYTE"}}},
	{Generic, "CREATE TABLE t (a NUMBER(-1));", nil, [][]string{{"-1"}}},
	{Generic, "CREATE TABLE t (a ENUM('x','it''s',''));", nil, [][]string{{"'x'", "'it's'", "''"}}},
	{Generic, "CREATE TABLE t (a INT('a' 'b'), b INT(\"\" 5));", nil, [][]string{{"'a''b'"}, {"5"}}},
	{Generic, `CREATE TABLE t (a INT(""));`, nil, [][]string{nil}},
	{MySQL, `CREATE TABLE t (a ENUM("x","y"));`, nil, [][]string{{"'x'", "'y'"}}},
	{MySQL, `CREATE TABLE t (a ENUM('a\'b'));`, nil, [][]string{{"'a'b'"}}},
	{MySQL, `CREATE TABLE t (a ENUM('\'','a'''));`, nil, [][]string{{"'''", "'a''"}}},
	{MySQL, "CREATE TABLE t (a INT(``));", nil, [][]string{nil}},
	{Postgres, "CREATE TABLE t (a TEXT($$x$$));", nil, [][]string{{"'x'"}}},
	{Postgres, `CREATE TABLE t (a TEXT(E'\n'));`, nil, [][]string{{"E'n'"}}},
	{Generic, "CREATE TABLE t (a CHARACTER VARYING(10), b TIMESTAMP(3) WITH TIME ZONE, c NATIONAL CHAR VARYING(5), d double precision, e time without time zone);",
		[]string{"CHARACTER VARYING", "TIMESTAMP WITH TIME ZONE", "NATIONAL CHAR VARYING", "DOUBLE PRECISION", "TIME WITHOUT TIME ZONE"},
		[][]string{{"10"}, {"3"}, {"5"}, nil, nil}},
	{Generic, `CREATE TABLE t (
		a INT, b TEXT, c INT REFERENCES p (x),
		PRIMARY KEY (a(10), b DESC, (lower(b))),
		UNIQUE KEY u (b(20) ASC),
		KEY (a),
		FOREIGN KEY (a, c) REFERENCES q (x, y) ON DELETE CASCADE,
		CONSTRAINT f FOREIGN KEY (b) REFERENCES r
	);`, nil, [][]string{nil, nil, nil, {"x"}, {"a", "b", "<expr>"}, {"b"}, {"a"}, {"a", "c"}, {"x", "y"}, {"b"}, nil}},
	{Generic, "ALTER TABLE t ADD COLUMN a DECIMAL(8,3), MODIFY b CHAR(2), ADD CONSTRAINT k PRIMARY KEY (a, `b`), ADD FOREIGN KEY (a) REFERENCES p (id);",
		nil, [][]string{{"8", "3"}, {"2"}, {"a", "b"}, {"a"}, {"id"}}},
}

// argLists returns every DataType.Args and key-column slice of stmt in
// source order: per column its type's arguments, then its REFERENCES
// columns if it has any; per constraint its columns, then its
// REFERENCES columns if it has any.
func argLists(stmt Statement) [][]string {
	var out [][]string
	col := func(c ColumnDef) {
		out = append(out, c.Type.Args)
		if c.References != nil {
			out = append(out, c.References.Columns)
		}
	}
	constraint := func(c TableConstraint) {
		out = append(out, c.Columns)
		if c.Ref != nil {
			out = append(out, c.Ref.Columns)
		}
	}
	switch st := stmt.(type) {
	case *CreateTable:
		for _, c := range st.Columns {
			col(c)
		}
		for _, c := range st.Constraints {
			constraint(c)
		}
	case *AlterTable:
		for _, a := range st.Actions {
			switch a := a.(type) {
			case AddColumn:
				col(a.Column)
			case ModifyColumn:
				col(a.Column)
			case ChangeColumn:
				col(a.Column)
			case AlterColumnType:
				out = append(out, a.Type.Args)
			case AddConstraint:
				constraint(a.Constraint)
			}
		}
	}
	return out
}

func TestTypeArgsAndKeyColumnsBytes(t *testing.T) {
	reused := NewParser()
	for _, tc := range argForms {
		fresh, diags := ParseWithDiagnostics(tc.src, tc.dialect)
		if len(diags) > 0 || len(fresh.Statements) != 1 {
			t.Fatalf("%s %q: %d statements, diagnostics %v", tc.dialect, tc.src, len(fresh.Statements), diags)
		}
		again, _ := reused.ParseWithDiagnostics(tc.src, tc.dialect)
		pooled, _, release := ParseWithDiagnosticsPooled(tc.src, tc.dialect)
		for name, script := range map[string]*Script{"fresh": fresh, "reused": again, "pooled": pooled} {
			if got := argLists(script.Statements[0]); !reflect.DeepEqual(got, tc.lists) {
				t.Errorf("%s %s %q:\n got %#v\nwant %#v", name, tc.dialect, tc.src, got, tc.lists)
			}
		}
		release()
		if tc.types == nil {
			continue
		}
		var types []string
		for _, c := range fresh.Statements[0].(*CreateTable).Columns {
			types = append(types, c.Type.Name)
		}
		if !reflect.DeepEqual(types, tc.types) {
			t.Errorf("%q: types %q, want %q", tc.src, types, tc.types)
		}
	}
}
