package main

import (
	"fmt"
	"io"
	"os"

	"coevo/internal/schema"
	"coevo/internal/sqlddl"
)

// runParse is the parser's debug surface: run one DDL file (or stdin)
// through the recovering parser and print the resolved dialect, the
// statement-level stats, every surviving statement and every categorized
// diagnostic — the same report shape the dialect fixture goldens store.
// The command fails when nothing parsed or a diagnostic escaped the code
// taxonomy, so scripts can gate on its exit code; -strict fails on any
// diagnostic at all.
func runParse(args []string) error {
	fs := newFlagSet("parse")
	dialect := dialectFlag(fs)
	strict := fs.Bool("strict", false, "exit nonzero when the parse produced any diagnostic")
	fs.Usage = func() {
		fmt.Fprint(os.Stderr, `usage: coevo parse [flags] [file.sql]

Parse a DDL file (stdin when no file or "-" is given) with the
recovering parser and print the parse-health report: dialect, statement
stats, each statement and each diagnostic with line:col, code and
category. Exits nonzero if no statements parsed or a diagnostic is
uncategorized.

flags:
`)
		fs.PrintDefaults()
	}
	if ok, err := parseFlags(fs, args); !ok {
		return err
	}
	d, err := resolveDialect(*dialect)
	if err != nil {
		return err
	}
	src, label, err := readParseInput(fs.Arg(0))
	if err != nil {
		return err
	}

	script, diags := sqlddl.ParseWithDiagnostics(src, d)
	sch, semDiags := schema.BuildDialect(script)
	diags = append(diags, semDiags...)

	fmt.Printf("source: %s\n", label)
	fmt.Printf("dialect: %s\n", script.Dialect)
	st := script.Stats
	fmt.Printf("stats: attempted=%d parsed=%d recovered=%d dropped=%d\n",
		st.Attempted, st.Parsed, st.Recovered, st.Dropped)
	for _, stmt := range script.Statements {
		fmt.Printf("stmt: line=%d %s\n", stmt.StartLine(), describeStatement(stmt))
	}
	for _, diag := range diags {
		fmt.Printf("diag: %s\n", diag)
	}
	fmt.Printf("schema: %d tables, %d attributes\n", sch.TableCount(), sch.AttributeCount())

	uncategorized := 0
	for _, diag := range diags {
		if diag.Category == "" || sqlddl.CategoryOf(diag.Code) == "" {
			uncategorized++
		}
	}
	switch {
	case len(script.Statements) == 0:
		return fmt.Errorf("parse: no statements survived (%d attempted, %d diagnostics)", st.Attempted, len(diags))
	case uncategorized > 0:
		return fmt.Errorf("parse: %d diagnostic(s) outside the code taxonomy", uncategorized)
	case *strict && len(diags) > 0:
		return fmt.Errorf("parse: -strict and %d diagnostic(s) recorded", len(diags))
	}
	return nil
}

// readParseInput loads the DDL source: a file path, or stdin for ""/"-".
func readParseInput(path string) (src, label string, err error) {
	if path == "" || path == "-" {
		raw, err := io.ReadAll(os.Stdin)
		return string(raw), "stdin", err
	}
	raw, err := os.ReadFile(path)
	return string(raw), path, err
}

// describeStatement names a parsed statement for the report.
func describeStatement(stmt sqlddl.Statement) string {
	switch s := stmt.(type) {
	case *sqlddl.CreateTable:
		return "CREATE TABLE " + s.Name.String()
	case *sqlddl.AlterTable:
		return "ALTER TABLE " + s.Name.String()
	case *sqlddl.DropTable:
		return "DROP TABLE"
	case *sqlddl.RenameTable:
		return "RENAME TABLE"
	case *sqlddl.SkippedStatement:
		if s.Keyword == "" {
			return "skipped"
		}
		return "skipped " + s.Keyword
	default:
		return fmt.Sprintf("%T", stmt)
	}
}
