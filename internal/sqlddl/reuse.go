package sqlddl

import (
	"strings"
	"sync"
)

// Parser is a reusable DDL parser. A single Parser amortizes every
// internal buffer across calls: the token slab, statement spans, the
// statement cursor and arena-style slabs for the AST node types a script
// produces in bulk. After the first few calls a steady-state Parse
// performs almost no allocation beyond the strings retained in the AST
// (and those are zero-copy slices of the input buffer whenever the
// source text needs no unescaping).
//
// Ownership contract: the *Script returned by Parse/ParseWithDiagnostics
// — and everything reachable from it — is valid only until the next call
// to Parse, ParseWithDiagnostics or Reset on the same Parser. Callers
// that retain AST nodes past that point must either copy what they keep
// or use the package-level Parse/ParseWithDiagnostics functions, which
// dedicate a fresh Parser per call and therefore return fully retainable
// scripts.
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

	ctSlab  []CreateTable
	atSlab  []AlterTable
	dtSlab  []DropTable
	rtSlab  []RenameTable
	skSlab  []SkippedStatement
	colSlab []ColumnDef

	script Script
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
	p.colSlab = p.colSlab[:0]
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

// Arena constructors: statement nodes are appended to per-type slabs and
// handed out as pointers. Slab growth may leave earlier nodes in an
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

// parserPool backs the pooled parse helpers used by per-version hot
// paths (schema reconstruction under the result cache).
var parserPool = sync.Pool{New: func() any { return NewParser() }}

// ParseWithDiagnosticsPooled parses src in the given dialect with a
// pooled reusable parser, returning structured diagnostics. The script
// is valid only until release is called; callers must finish consuming
// (or copy) the AST first, then release.
func ParseWithDiagnosticsPooled(src string, d Dialect) (script *Script, diags []Diagnostic, release func()) {
	p := parserPool.Get().(*Parser)
	script, errs := p.parse(src, d, false)
	return script, diagnosticsFromErrors(src, errs), func() { parserPool.Put(p) }
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
