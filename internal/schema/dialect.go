// Dialect-aware schema building: the Builder that reconstructs the
// versions of a DDL file, per-dialect type canonicalization and the
// structured parse report the mining pipeline aggregates into a
// project's parse health. The Generic dialect deliberately reproduces the
// historical NormalizeType output byte for byte, so existing goldens and
// cached measurements are unaffected unless a dialect is requested.
package schema

import "coevo/internal/sqlddl"

// dialectSynonyms canonicalizes type spellings that only exist in one
// vendor's dialect. The maps apply before the cross-vendor typeSynonyms
// table, so e.g. MSSQL NVARCHAR first becomes VARCHAR and then flows
// through the shared canon. Generic has no entry on purpose: its output
// must stay identical to the pre-dialect pipeline.
var dialectSynonyms = map[sqlddl.Dialect]map[string]string{
	sqlddl.MSSQL: {
		"NVARCHAR":         "VARCHAR",
		"NCHAR":            "CHAR",
		"NTEXT":            "TEXT",
		"DATETIME2":        "DATETIME",
		"SMALLDATETIME":    "DATETIME",
		"DATETIMEOFFSET":   "TIMESTAMP WITH TIME ZONE",
		"MONEY":            "DECIMAL",
		"SMALLMONEY":       "DECIMAL",
		"IMAGE":            "BLOB",
		"UNIQUEIDENTIFIER": "UUID",
		"BIT":              "BOOLEAN",
	},
	sqlddl.SQLite: {
		"CLOB": "TEXT",
	},
}

// NormalizeTypeForDialect renders a parsed data type in canonical
// comparison form, first folding vendor-only spellings of the given
// dialect. For Generic (and dialects with no synonym table) it is exactly
// NormalizeType.
func NormalizeTypeForDialect(dt sqlddl.DataType, d sqlddl.Dialect) string {
	if syn := dialectSynonyms[d]; syn != nil {
		if canon, ok := syn[dt.Name]; ok {
			dt.Name = canon // dt is a copy; the AST is untouched
		}
	}
	return NormalizeType(dt)
}

// ParseReport is the structured outcome of parsing and building one DDL
// version: the dialect the parser actually used (detection already
// resolved when Auto was requested), per-statement accounting, and every
// diagnostic — lex and syntax problems from the parser plus semantic
// apply problems from this package, each carrying the source line of the
// statement that caused it.
type ParseReport struct {
	Dialect sqlddl.Dialect
	Stats   sqlddl.ParseStats
	Diags   []sqlddl.Diagnostic
}

// Clean reports whether the version parsed and applied without a single
// diagnostic.
func (r ParseReport) Clean() bool { return r.Stats.Clean() && len(r.Diags) == 0 }

// Builder reconstructs the successive versions of one DDL file. It
// remembers every CREATE TABLE statement it has built, with that
// statement's apply errors, keyed by the version's resolved dialect and
// the statement's raw text, and gives every later version that repeats
// the statement the same *Table. Most tables carry over unchanged from
// one version to the next, so a history builds only the statements that
// changed, and schemadiff skips a table both versions share. A shared
// table is never changed in place (see Table). The zero value is ready to
// use; a Builder is not safe for concurrent use.
type Builder struct {
	tables map[createKey]builtTable
}

// createKey identifies what a CREATE TABLE statement builds: a table
// depends only on the statement's own text and the dialect. The key
// holds the text, never the AST, which the pooled parser recycles.
type createKey struct {
	dialect sqlddl.Dialect
	raw     string
}

// builtTable is a memoized CREATE TABLE: the shared table and its apply
// errors.
type builtTable struct {
	t    *Table
	errs []error
}

// table returns the table ct declares in dialect d, building it on the
// statement's first appearance.
func (b *Builder) table(ct *sqlddl.CreateTable, d sqlddl.Dialect) (*Table, []error) {
	key := createKey{dialect: d, raw: ct.Raw()}
	if bt, ok := b.tables[key]; ok {
		return bt.t, bt.errs
	}
	t, errs := buildTable(ct, d)
	t.shared = true
	if b.tables == nil {
		b.tables = make(map[createKey]builtTable)
	}
	b.tables[key] = builtTable{t: t, errs: errs}
	return t, errs
}

// Build reconstructs the schema described by a whole DDL script: the
// file is replayed statement by statement against an empty schema,
// matching the study's treatment of each version of the DDL file as a
// self-contained schema declaration. Apply problems come back as
// semantic diagnostics anchored to the offending statement's line
// alongside the (always non-nil) schema.
func (b *Builder) Build(script *sqlddl.Script) (*Schema, []sqlddl.Diagnostic) {
	// Each CREATE TABLE adds at most one table, so the schema is sized
	// once instead of growing table by table.
	creates := 0
	for _, stmt := range script.Statements {
		if _, ok := stmt.(*sqlddl.CreateTable); ok {
			creates++
		}
	}
	s := &Schema{
		tables:     make([]*Table, 0, creates),
		tableIndex: make(map[string]int, creates),
		dialect:    script.Dialect,
	}
	var diags []sqlddl.Diagnostic
	for _, stmt := range script.Statements {
		for _, err := range s.apply(stmt, b) {
			diags = append(diags, sqlddl.Diagnostic{
				Code:     sqlddl.CodeSemApply,
				Category: sqlddl.CategorySemantic,
				Line:     stmt.StartLine(),
				Col:      1,
				Msg:      err.Error(),
				Snippet:  firstLine(stmt.Raw()),
			})
		}
	}
	return s, diags
}

// ParseAndBuild parses src with the recovering dialect-aware parser and
// builds the schema it declares, returning the always non-nil schema
// together with the full parse report. Parsing runs on a pooled reusable
// parser; everything kept from the AST is copied out before the script
// is recycled.
func (b *Builder) ParseAndBuild(src string, d sqlddl.Dialect) (*Schema, ParseReport) {
	script, parseDiags, release := sqlddl.ParseWithDiagnosticsPooled(src, d)
	s, buildDiags := b.Build(script)
	rep := ParseReport{
		Dialect: script.Dialect,
		Stats:   script.Stats,
		Diags:   append(parseDiags, buildDiags...),
	}
	release()
	return s, rep
}

// BuildDialect is Build on a fresh Builder: one script on its own.
func BuildDialect(script *sqlddl.Script) (*Schema, []sqlddl.Diagnostic) {
	return new(Builder).Build(script)
}

// ParseAndBuildDialect is ParseAndBuild on a fresh Builder: one DDL
// source on its own.
func ParseAndBuildDialect(src string, d sqlddl.Dialect) (*Schema, ParseReport) {
	return new(Builder).ParseAndBuild(src, d)
}

// firstLine trims a statement's raw text to its first line for snippet
// display.
func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			s = s[:i]
			break
		}
	}
	if len(s) > 120 {
		s = s[:120] + "..."
	}
	return s
}
