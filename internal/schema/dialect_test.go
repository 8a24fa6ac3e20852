package schema

import (
	"reflect"
	"testing"

	"coevo/internal/cache"
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

func TestParseValueCodecRoundTrip(t *testing.T) {
	src := "CREATE TABLE [a] ([x] NVARCHAR(5))\nGO\nCREATE TABLE broken ([y] NVARCHAR(MAX,\nGO\n"
	s, rep := ParseAndBuildDialect(src, sqlddl.MSSQL)
	got, gotRep, err := decodeParseValue(encodeParseValue(s, rep))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRep, rep) {
		t.Errorf("report round trip:\n got %+v\nwant %+v", gotRep, rep)
	}
	if !reflect.DeepEqual(EncodeBinary(got), EncodeBinary(s)) {
		t.Error("schema round trip diverged")
	}
	if got.dialect != sqlddl.MSSQL {
		t.Errorf("decoded dialect = %s", got.dialect)
	}
}

func TestParseAndBuildCachedDialect(t *testing.T) {
	c := cache.NewMemory()
	src := []byte("CREATE TABLE t ([n] NVARCHAR(7))\nGO\nDROP TABLE gone\nGO\n")
	cold, coldRep := ParseAndBuildCachedDialect(src, sqlddl.MSSQL, c)
	warm, warmRep := ParseAndBuildCachedDialect(src, sqlddl.MSSQL, c)
	if !reflect.DeepEqual(EncodeBinary(cold), EncodeBinary(warm)) {
		t.Error("warm schema diverged from cold")
	}
	if !reflect.DeepEqual(coldRep, warmRep) {
		t.Errorf("warm report diverged:\ncold %+v\nwarm %+v", coldRep, warmRep)
	}
	// The requested dialect is part of the key: the same bytes under
	// Generic must not hit the MSSQL entry (GO would not split there).
	gen, _ := ParseAndBuildCachedDialect(src, sqlddl.Generic, c)
	if reflect.DeepEqual(EncodeBinary(gen), EncodeBinary(cold)) {
		t.Error("generic lookup hit the mssql cache entry")
	}
}

// FuzzParseValueCodec asserts the satellite requirement that partial
// scripts — whatever the recovering parser salvages from arbitrary input
// under every dialect — round-trip the parse-value codec exactly.
func FuzzParseValueCodec(f *testing.F) {
	f.Add("CREATE TABLE t (a INT);", uint8(0))
	f.Add("CREATE TABLE [b] ([x] NVARCHAR(MAX,\nGO\n", uint8(4))
	f.Add("'unterminated\nCREATE TABLE t (a INT);", uint8(1))
	f.Add("$tag$ body $tag$; ALTER TABLE nope ADD c INT;", uint8(2))
	f.Fuzz(func(t *testing.T, src string, dialectByte uint8) {
		ds := append(sqlddl.Dialects(), sqlddl.Auto)
		d := ds[int(dialectByte)%len(ds)]
		s, rep := ParseAndBuildDialect(src, d)
		got, gotRep, err := decodeParseValue(encodeParseValue(s, rep))
		if err != nil {
			t.Fatalf("decode(%s): %v", d, err)
		}
		if !reflect.DeepEqual(gotRep, rep) {
			t.Fatalf("report round trip (%s):\n got %+v\nwant %+v", d, gotRep, rep)
		}
		if !reflect.DeepEqual(EncodeBinary(got), EncodeBinary(s)) {
			t.Fatalf("schema round trip diverged (%s)", d)
		}
	})
}
