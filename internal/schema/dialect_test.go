package schema

import (
	"testing"

	"coevo/internal/sqlddl"
)

func TestNormalizeTypeForDialect(t *testing.T) {
	cases := []struct {
		dt   sqlddl.DataType
		d    sqlddl.Dialect
		want string
	}{
		{sqlddl.DataType{Name: "NVARCHAR", Args: []string{"200"}}, sqlddl.MSSQL, "VARCHAR(200)"},
		{sqlddl.DataType{Name: "NTEXT"}, sqlddl.MSSQL, "TEXT"},
		{sqlddl.DataType{Name: "DATETIME2"}, sqlddl.MSSQL, "DATETIME"},
		{sqlddl.DataType{Name: "MONEY"}, sqlddl.MSSQL, "DECIMAL"},
		{sqlddl.DataType{Name: "UNIQUEIDENTIFIER"}, sqlddl.MSSQL, "UUID"},
		// Vendor fold composes with the shared canon: NCHAR -> CHAR stays.
		{sqlddl.DataType{Name: "NCHAR", Args: []string{"3"}}, sqlddl.MSSQL, "CHAR(3)"},
		{sqlddl.DataType{Name: "CLOB"}, sqlddl.SQLite, "TEXT"},
		// Generic must match NormalizeType exactly.
		{sqlddl.DataType{Name: "NVARCHAR", Args: []string{"200"}}, sqlddl.Generic, "NVARCHAR(200)"},
		{sqlddl.DataType{Name: "INTEGER"}, sqlddl.MSSQL, "INT"},
	}
	for _, c := range cases {
		if got := NormalizeTypeForDialect(c.dt, c.d); got != c.want {
			t.Errorf("NormalizeTypeForDialect(%v, %s) = %q, want %q", c.dt, c.d, got, c.want)
		}
	}
	// Generic is byte-identical to the historical normalization for every
	// spelling in the shared synonym table.
	for from := range typeSynonyms {
		dt := sqlddl.DataType{Name: from}
		if got, want := NormalizeTypeForDialect(dt, sqlddl.Generic), NormalizeType(dt); got != want {
			t.Errorf("generic drifted for %s: %q vs %q", from, got, want)
		}
	}
}

func TestParseAndBuildDialectMSSQL(t *testing.T) {
	src := "CREATE TABLE [dbo].[People] (\n" +
		"  [Id] INT IDENTITY(1,1) NOT NULL,\n" +
		"  [Name] NVARCHAR(100),\n" +
		"  [Born] DATETIME2\n" +
		")\nGO\n" +
		"ALTER TABLE [dbo].[Missing] ADD [X] INT\nGO\n"
	s, rep := ParseAndBuildDialect(src, sqlddl.MSSQL)
	if rep.Dialect != sqlddl.MSSQL {
		t.Fatalf("dialect = %s", rep.Dialect)
	}
	tab, ok := s.Table("People")
	if !ok {
		t.Fatalf("People table missing; tables=%v", s.SortedTableNames())
	}
	name, _ := tab.Attribute("Name")
	if name.Type != "VARCHAR(100)" {
		t.Errorf("Name type = %q, want VARCHAR(100)", name.Type)
	}
	born, _ := tab.Attribute("Born")
	if born.Type != "DATETIME" {
		t.Errorf("Born type = %q, want DATETIME", born.Type)
	}
	// The ALTER of a missing table surfaces as one semantic diagnostic
	// anchored to its statement line.
	var sem []sqlddl.Diagnostic
	for _, d := range rep.Diags {
		if d.Category == sqlddl.CategorySemantic {
			sem = append(sem, d)
		}
	}
	if len(sem) != 1 || sem[0].Code != sqlddl.CodeSemApply {
		t.Fatalf("semantic diags = %+v, want one %s", sem, sqlddl.CodeSemApply)
	}
	if sem[0].Line != 7 {
		t.Errorf("semantic diag line = %d, want 7", sem[0].Line)
	}
}

func TestParseAndBuildDialectAuto(t *testing.T) {
	s, rep := ParseAndBuildDialect("CREATE TABLE `t` (a INT) ENGINE=InnoDB;", sqlddl.Auto)
	if rep.Dialect != sqlddl.MySQL {
		t.Errorf("auto resolved to %s, want mysql", rep.Dialect)
	}
	if !rep.Clean() {
		t.Errorf("report not clean: %+v", rep)
	}
	if s.TableCount() != 1 {
		t.Errorf("tables = %d", s.TableCount())
	}
}
