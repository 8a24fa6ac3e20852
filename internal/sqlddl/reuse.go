package sqlddl

import (
	"strings"
	"sync"
)

// Parser is a reusable DDL parser. A single Parser amortizes every
// internal buffer across calls: the token slab, statement spans, the
// statement cursor and arena-style slabs for the AST node types and
// every AST slice a script holds. Names, type arguments and key columns
// are zero-copy slices of the input whenever the source spells them as
// the AST holds them, so after the first few calls a steady-state parse
// allocates only for the text it must rewrite — an escaped identifier or
// string, a lower-case type name or leading keyword, a multi-token type
// argument, DEFAULT, CHECK and expression texts — and for ALTER actions,
// which are boxed into the AlterAction interface.
//
// Ownership contract: the *Script returned by Parse/ParseWithDiagnostics
// — and everything reachable from it, every slice and *ForeignKeyRef
// included — is valid only until the next call to Parse,
// ParseWithDiagnostics or Reset on the same Parser. Callers that retain
// AST nodes past that point must either copy what they keep or use the
// package-level Parse/ParseWithDiagnostics functions, which dedicate a
// fresh Parser per call and therefore return fully retainable scripts.
// Every slice is capped at its length, so appending to one copies it
// instead of overwriting a neighbour in the slab.
// Identifier and literal strings inside the AST alias the input buffer;
// they remain valid for the life of the Go string passed in (strings are
// immutable), independent of parser reuse.
//
// A Parser is not safe for concurrent use; use one per goroutine or the
// package-level pooled helpers.
type Parser struct {
	toks    []token
	spans   []stmtSpan
	out     []Statement
	sp      stmtParser
	dialect Dialect
	src     string // the source being parsed; token offsets index it

	ctSlab  []CreateTable
	atSlab  []AlterTable
	dtSlab  []DropTable
	rtSlab  []RenameTable
	skSlab  []SkippedStatement
	refSlab []ForeignKeyRef

	// Slices of the AST are capped sub-slices of these slabs.
	colSlab  []ColumnDef       // CreateTable.Columns
	conSlab  []TableConstraint // CreateTable.Constraints
	strSlab  []string          // DataType.Args, TableConstraint.Columns, ForeignKeyRef.Columns
	actSlab  []AlterAction     // AlterTable.Actions
	nameSlab []TableName       // DropTable.Names
	renSlab  []TableRename     // RenameTable.Renames

	script Script
	// release returns a pooled Parser to parserPool; made once per
	// pooled Parser.
	release func()
}

// stmtSpan is one statement's raw text plus its token range inside the
// parser's flat token slab.
type stmtSpan struct {
	text       string
	line       int
	start, end int
}

// NewParser returns an empty reusable parser.
func NewParser() *Parser { return &Parser{} }

// Reset recycles every internal buffer. Scripts returned by earlier
// calls become invalid.
func (p *Parser) Reset() {
	p.toks = p.toks[:0]
	p.spans = p.spans[:0]
	p.out = p.out[:0]
	p.ctSlab = p.ctSlab[:0]
	p.atSlab = p.atSlab[:0]
	p.dtSlab = p.dtSlab[:0]
	p.rtSlab = p.rtSlab[:0]
	p.skSlab = p.skSlab[:0]
	p.refSlab = p.refSlab[:0]
	p.colSlab = p.colSlab[:0]
	p.conSlab = p.conSlab[:0]
	p.strSlab = p.strSlab[:0]
	p.actSlab = p.actSlab[:0]
	p.nameSlab = p.nameSlab[:0]
	p.renSlab = p.renSlab[:0]
	p.script = Script{}
}

// Parse parses src strictly, like the package-level Parse, reusing the
// parser's buffers. See the type comment for the ownership contract.
func (p *Parser) Parse(src string) (*Script, error) {
	script, errs := p.parse(src, Generic, true)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return script, nil
}

// ParseWithDiagnostics parses src leniently in the given dialect, like
// the package-level ParseWithDiagnostics, reusing the parser's buffers.
// See the type comment for the ownership contract.
func (p *Parser) ParseWithDiagnostics(src string, d Dialect) (*Script, []Diagnostic) {
	script, errs := p.parse(src, d, false)
	return script, diagnosticsFromErrors(src, errs)
}

// Arena constructors: statement nodes and foreign-key references are
// appended to per-type slabs and handed out as pointers. Slab growth may leave earlier nodes in an
// abandoned backing array — harmless, every node is fully written before
// the next one is allocated and only ever read through its pointer.

func (p *Parser) newCreateTable(raw string, line int) *CreateTable {
	p.ctSlab = append(p.ctSlab, CreateTable{stmtBase: stmtBase{RawSQL: raw, Line: line}})
	return &p.ctSlab[len(p.ctSlab)-1]
}

func (p *Parser) newAlterTable(raw string, line int) *AlterTable {
	p.atSlab = append(p.atSlab, AlterTable{stmtBase: stmtBase{RawSQL: raw, Line: line}})
	return &p.atSlab[len(p.atSlab)-1]
}

func (p *Parser) newDropTable(raw string, line int) *DropTable {
	p.dtSlab = append(p.dtSlab, DropTable{stmtBase: stmtBase{RawSQL: raw, Line: line}})
	return &p.dtSlab[len(p.dtSlab)-1]
}

func (p *Parser) newRenameTable(raw string, line int) *RenameTable {
	p.rtSlab = append(p.rtSlab, RenameTable{stmtBase: stmtBase{RawSQL: raw, Line: line}})
	return &p.rtSlab[len(p.rtSlab)-1]
}

func (p *Parser) newSkipped(raw string, line int, keyword string) *SkippedStatement {
	p.skSlab = append(p.skSlab, SkippedStatement{stmtBase: stmtBase{RawSQL: raw, Line: line}, Keyword: keyword})
	return &p.skSlab[len(p.skSlab)-1]
}

func (p *Parser) newRef(table TableName) *ForeignKeyRef {
	p.refSlab = append(p.refSlab, ForeignKeyRef{Table: table})
	return &p.refSlab[len(p.refSlab)-1]
}

// cut returns the elements a list appended to slab since it started at
// index from, capped so that appending to the result cannot write into
// the slab. An empty list is nil — not an empty slice into the slab — so
// a reused parser's output is structurally identical to a fresh
// parser's, where the untouched slab is nil.
func cut[T any](slab []T, from int) []T {
	if len(slab) == from {
		return nil
	}
	return slab[from:len(slab):len(slab)]
}

// parserPool backs the pooled parse helpers used by per-version hot
// paths (schema reconstruction under the result cache).
var parserPool = sync.Pool{New: func() any { return NewParser() }}

// ParseWithDiagnosticsPooled parses src in the given dialect with a
// pooled reusable parser, returning structured diagnostics. The script
// is valid only until release is called; callers must finish consuming
// (or copy) the AST first, then release, once.
func ParseWithDiagnosticsPooled(src string, d Dialect) (script *Script, diags []Diagnostic, release func()) {
	p := parserPool.Get().(*Parser)
	if p.release == nil {
		p.release = func() { parserPool.Put(p) }
	}
	script, errs := p.parse(src, d, false)
	return script, diagnosticsFromErrors(src, errs), p.release
}

// upperASCII returns strings.ToUpper(s), but without allocating when s
// is pure ASCII with no lower-case letters — the overwhelmingly common
// case for SQL keywords and type names. Any non-ASCII byte defers to
// strings.ToUpper so behaviour matches exactly.
func upperASCII(s string) string {
	i := 0
	for ; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 {
			return strings.ToUpper(s)
		}
		if 'a' <= c && c <= 'z' {
			break
		}
	}
	if i == len(s) {
		return s
	}
	b := []byte(s)
	for ; i < len(b); i++ {
		c := b[i]
		if c >= 0x80 {
			return strings.ToUpper(s)
		}
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}
