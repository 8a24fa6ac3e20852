package sqlddl

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite the dialect corpus golden files")

// TestDialectFixtureCorpus runs the deliberately messy per-dialect DDL
// fixtures through the recovering parser and compares the full parse
// report — statement outcomes, stats and categorized diagnostics — with
// committed goldens. The fixtures seed truncated statements, mixed
// quoting, vendor comments and GO separators; every seeded error must
// come back as a coded Diagnostic while the rest of the file survives.
func TestDialectFixtureCorpus(t *testing.T) {
	for _, d := range Dialects() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			src := readFixture(t, d)
			golden := filepath.Join("testdata", "dialects", d.String()+".golden")
			got := formatParseReport(src, d)
			if *updateGoldens {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("parse report drifted from golden %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestDialectFixtureHealth asserts the corpus-wide invariants that
// cmd/coevo's TestEndToEndParse also checks through `coevo parse`: every
// fixture yields statements,
// every diagnostic is categorized with a position, and the stats add up.
func TestDialectFixtureHealth(t *testing.T) {
	for _, d := range Dialects() {
		src := readFixture(t, d)
		script, diags := ParseWithDiagnostics(src, d)
		if script == nil || len(script.Statements) == 0 {
			t.Fatalf("%s: no statements survived", d)
		}
		st := script.Stats
		if st.Attempted != st.Parsed+st.Recovered+st.Dropped {
			t.Errorf("%s: stats don't add up: %+v", d, st)
		}
		if st.Recovered+st.Dropped == 0 {
			t.Errorf("%s: fixture seeded errors but stats report a clean parse", d)
		}
		if len(diags) == 0 {
			t.Errorf("%s: fixture seeded errors but no diagnostics came back", d)
		}
		for _, diag := range diags {
			if diag.Category == "" || CategoryOf(diag.Code) == "" {
				t.Errorf("%s: uncategorized diagnostic %+v", d, diag)
			}
			if diag.Line < 1 || diag.Col < 1 {
				t.Errorf("%s: diagnostic without position %+v", d, diag)
			}
		}
		if detected := DetectDialect(src); detected != d {
			t.Errorf("DetectDialect(%s fixture) = %s", d, detected)
		}
	}
}

func readFixture(t *testing.T, d Dialect) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "dialects", d.String()+".sql"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// formatParseReport renders a parse the way the goldens store it: the
// resolved dialect, per-statement outcome kinds, the stats line and each
// diagnostic in line:col order.
func formatParseReport(src string, d Dialect) string {
	script, diags := ParseWithDiagnostics(src, d)
	var b strings.Builder
	fmt.Fprintf(&b, "dialect: %s\n", script.Dialect)
	st := script.Stats
	fmt.Fprintf(&b, "stats: attempted=%d parsed=%d recovered=%d dropped=%d\n",
		st.Attempted, st.Parsed, st.Recovered, st.Dropped)
	for _, stmt := range script.Statements {
		fmt.Fprintf(&b, "stmt: line=%d %s\n", stmt.StartLine(), statementKind(stmt))
	}
	for _, diag := range diags {
		fmt.Fprintf(&b, "diag: %s\n", diag)
	}
	return b.String()
}

func statementKind(stmt Statement) string {
	switch s := stmt.(type) {
	case *CreateTable:
		return "CREATE TABLE " + s.Name.String()
	case *AlterTable:
		return "ALTER TABLE " + s.Name.String()
	case *DropTable:
		return "DROP TABLE"
	case *RenameTable:
		return "RENAME TABLE"
	case *SkippedStatement:
		if s.Keyword == "" {
			return "skipped"
		}
		return "skipped " + s.Keyword
	default:
		return fmt.Sprintf("%T", stmt)
	}
}

func TestMSSQLGoSeparator(t *testing.T) {
	src := "CREATE TABLE a ([Id] INT)\nGO\nCREATE TABLE b ([Id] INT)\n  go  \nSELECT [Id] FROM go" // trailing "go" is an identifier
	script, diags := ParseWithDiagnostics(src, MSSQL)
	if len(diags) != 0 {
		t.Fatalf("diagnostics: %v", diags)
	}
	if n := len(script.CreateTables()); n != 2 {
		t.Fatalf("CREATE TABLEs = %d, want 2", n)
	}
	if n := len(script.Statements); n != 3 {
		t.Fatalf("statements = %d, want 3 (two tables + skipped SELECT)", n)
	}
	// Under every other dialect GO is just an identifier, so the two
	// INSERTs below stay one statement instead of splitting at GO.
	script, _ = ParseWithDiagnostics("INSERT INTO a VALUES (1)\nGO\nINSERT INTO b VALUES (2)\n", Generic)
	if n := len(script.Statements); n != 1 {
		t.Fatalf("generic parse treated GO as separator: %+v", script.Statements)
	}
}

func TestMySQLDoubleQuotedString(t *testing.T) {
	src := `CREATE TABLE t (a VARCHAR(10) DEFAULT "x");`
	ct := func(d Dialect) *CreateTable {
		script, diags := ParseWithDiagnostics(src, d)
		if len(diags) != 0 {
			t.Fatalf("%s: diagnostics: %v", d, diags)
		}
		cts := script.CreateTables()
		if len(cts) != 1 {
			t.Fatalf("%s: CREATE TABLEs = %d", d, len(cts))
		}
		return cts[0]
	}
	if got := ct(MySQL).Columns[0].Default; got != "'x'" {
		t.Errorf("mysql default = %q, want string literal 'x'", got)
	}
	if got := ct(Generic).Columns[0].Default; got != "X" {
		t.Errorf("generic default = %q, want identifier X", got)
	}
}

func TestLexRecoveryResynchronizes(t *testing.T) {
	src := "CREATE TABLE a (x INT);\nINSERT INTO t VALUES ('broken);\nCREATE TABLE b (y INT);\n"
	script, diags := ParseWithDiagnostics(src, Generic)
	if n := len(script.CreateTables()); n != 2 {
		t.Fatalf("CREATE TABLEs = %d, want 2 (statement after lex error must survive)", n)
	}
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want one lex diagnostic", diags)
	}
	d := diags[0]
	if d.Code != CodeLexString || d.Category != CategoryLex {
		t.Errorf("diagnostic = %+v, want %s/%s", d, CodeLexString, CategoryLex)
	}
	if d.Line != 2 || d.Col != 23 {
		t.Errorf("position = %d:%d, want 2:23", d.Line, d.Col)
	}
	if script.Stats.Dropped != 1 || script.Stats.Parsed != 2 {
		t.Errorf("stats = %+v", script.Stats)
	}
}

func TestParseDialectRoundTrip(t *testing.T) {
	for _, d := range append(Dialects(), Auto) {
		got, err := ParseDialect(d.String())
		if err != nil || got != d {
			t.Errorf("ParseDialect(%q) = %v, %v", d.String(), got, err)
		}
	}
	if d, err := ParseDialect(""); err != nil || d != Generic {
		t.Errorf("ParseDialect(\"\") = %v, %v", d, err)
	}
	if _, err := ParseDialect("oracle"); err == nil {
		t.Error("ParseDialect(\"oracle\") should fail")
	}
}

func TestAutoDialectResolves(t *testing.T) {
	script, _ := ParseWithDiagnostics("CREATE TABLE `t` (a INT) ENGINE=InnoDB;", Auto)
	if script.Dialect != MySQL {
		t.Errorf("resolved dialect = %s, want mysql", script.Dialect)
	}
}
