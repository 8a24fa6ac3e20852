package sqlddl

import (
	"fmt"
	"strings"
)

// ParseError reports a syntactic problem inside one statement. Pos is
// the byte offset of the offending token and Code its diagnostic code;
// Error keeps the historical "sqlddl: line N: msg" shape.
type ParseError struct {
	Line int
	Msg  string
	Pos  int
	Code string
}

func (e *ParseError) Error() string { return fmt.Sprintf("sqlddl: line %d: %s", e.Line, e.Msg) }

// Parse parses src strictly: any malformed DDL statement yields an error.
// Statements outside the DDL subset (INSERTs, SETs, ...) are still accepted
// and preserved as SkippedStatement values — that is tolerance by design,
// not an error condition. The returned script uses a dedicated parser and
// is safe to retain indefinitely; see Parser for the reusable variant.
func Parse(src string) (*Script, error) {
	var p Parser
	return p.Parse(src)
}

// ParseWithDiagnostics parses src leniently in the given dialect,
// demoting malformed DDL statements to SkippedStatement values and
// resynchronizing past lexical errors at the next statement boundary, so
// a partial *Script always comes back. Every problem survived is
// reported as a categorized Diagnostic with line/column information;
// per-statement accounting is on the script's Stats. Auto resolves the
// dialect via DetectDialect first. This is the mode the mining pipeline
// uses: one broken statement must not discard a schema version. The
// returned script uses a dedicated parser and is safe to retain
// indefinitely; see Parser for the reusable variant.
func ParseWithDiagnostics(src string, d Dialect) (*Script, []Diagnostic) {
	var p Parser
	return p.ParseWithDiagnostics(src, d)
}

func (p *Parser) parse(src string, d Dialect, strict bool) (*Script, []error) {
	p.Reset()
	if d == Auto {
		d = DetectDialect(src)
	}
	p.dialect, p.src = d, src
	dropped, errs := p.split(src)
	if strict && len(errs) > 0 {
		return nil, errs[:1]
	}
	stats := ParseStats{Dropped: dropped}
	out := p.out[:0]
	for _, st := range p.spans {
		parsed, err := p.parseStatement(st)
		if err != nil {
			if strict {
				return nil, []error{err}
			}
			errs = append(errs, err)
			out = append(out, p.newSkipped(st.text, st.line, leadingKeyword(p.toks[st.start:st.end])))
			stats.Recovered++
			continue
		}
		if parsed != nil {
			out = append(out, parsed)
			stats.Parsed++
		}
	}
	stats.Attempted = stats.Parsed + stats.Recovered + stats.Dropped
	p.out = out
	p.script = Script{Statements: out, Dialect: d, Stats: stats}
	return &p.script, errs
}

// lexWhitespace is exactly the byte set the lexer skips between tokens.
// Statement raw text is trimmed with this set — not unicode.IsSpace — so
// Raw() never trims a byte the lexer treated as token content (e.g. a
// non-breaking space), keeping raw text a faithful re-parseable record
// of what was lexed.
const lexWhitespace = " \t\r\n\f\v"

// split tokenizes src into the parser's flat token slab and cuts it at
// top-level semicolons, recording one span per statement. A lexical
// error (unterminated string/comment) no longer poisons the rest of the
// file: the statement being tokenized is dropped, the error collected,
// and lexing resumes after the next semicolon — statement-level
// recovery, so one stray quote costs one statement, not the file. The
// returned dropped count is the number of such abandoned statements.
func (p *Parser) split(src string) (dropped int, errs []error) {
	lex := lexer{src: src, line: 1, dialect: p.dialect}
	toks := p.toks[:0]
	spans := p.spans[:0]
	start := 0
	stmtStart := 0 // index into toks of the current statement's first token
	flush := func(end int) {
		if len(toks) == stmtStart {
			start = end
			return
		}
		spans = append(spans, stmtSpan{
			text:  strings.Trim(src[start:end], lexWhitespace),
			line:  toks[stmtStart].line,
			start: stmtStart,
			end:   len(toks),
		})
		stmtStart = len(toks)
		start = end
	}
	for {
		tok, err := lex.next()
		if err != nil {
			errs = append(errs, err)
			dropped++
			toks = toks[:stmtStart] // the statement's tokens cannot be trusted
			le, ok := err.(*LexError)
			resume := len(src)
			if ok && le.Pos+1 < len(src) {
				if idx := strings.IndexByte(src[le.Pos+1:], ';'); idx >= 0 {
					resume = le.Pos + 1 + idx + 1
				}
			}
			if resume >= len(src) {
				p.toks, p.spans = toks, spans
				return dropped, errs
			}
			line := 1
			if ok {
				line = le.Line + strings.Count(src[le.Pos:resume], "\n")
			}
			lex = lexer{src: src, off: resume, line: line, dialect: p.dialect}
			start = resume
			continue
		}
		if tok.kind == tokEOF {
			flush(len(src))
			p.toks, p.spans = toks, spans
			return dropped, errs
		}
		if tok.symbolIs(";") {
			flush(tok.pos)
			start = tok.pos + 1
			continue
		}
		if p.dialect.goSeparators() && tok.kind == tokIdent && len(tok.text) == 2 &&
			tok.text[0]|0x20 == 'g' && tok.text[1]|0x20 == 'o' && goSeparatorAt(src, tok.pos) {
			// An MSSQL batch separator ends the statement like ';' does.
			flush(tok.pos)
			start = tok.pos + 2
			continue
		}
		if len(toks) == stmtStart {
			start = tok.pos
		}
		toks = append(toks, tok)
	}
}

func leadingKeyword(toks []token) string {
	if len(toks) == 0 {
		return ""
	}
	if toks[0].kind == tokIdent {
		return upperASCII(toks[0].text)
	}
	return ""
}

// parseStatement dispatches one statement. A nil, nil return means the
// statement was empty. Statements outside the DDL subset come back as
// *SkippedStatement, never as an error.
func (ps *Parser) parseStatement(st stmtSpan) (Statement, error) {
	toks := ps.toks[st.start:st.end]
	if len(toks) == 0 {
		return nil, nil
	}
	p := &ps.sp
	*p = stmtParser{toks: toks, raw: st.text, line: st.line, arena: ps}
	head := p.peek()
	switch {
	case head.keywordIs("CREATE"):
		if p.lookaheadIsTable(1) {
			return p.parseCreateTable()
		}
		return p.skipped("CREATE"), nil
	case head.keywordIs("ALTER"):
		if p.peekAt(1).keywordIs("TABLE") {
			return p.parseAlterTable()
		}
		return p.skipped("ALTER"), nil
	case head.keywordIs("DROP"):
		if p.peekAt(1).keywordIs("TABLE") {
			return p.parseDropTable()
		}
		return p.skipped("DROP"), nil
	case head.keywordIs("RENAME"):
		if p.peekAt(1).keywordIs("TABLE") {
			return p.parseRenameTable()
		}
		return p.skipped("RENAME"), nil
	default:
		return p.skipped(leadingKeyword(toks)), nil
	}
}

// stmtParser walks the token list of a single statement. Its arena is
// the owning Parser, whose slabs provide statement and column storage.
type stmtParser struct {
	toks  []token
	pos   int
	raw   string
	line  int
	arena *Parser
}

var eofToken = token{kind: tokEOF}

func (p *stmtParser) peek() token { return p.peekAt(0) }
func (p *stmtParser) done() bool  { return p.pos >= len(p.toks) }
func (p *stmtParser) advance() token {
	t := p.peek()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}

func (p *stmtParser) peekAt(i int) token {
	if p.pos+i >= len(p.toks) {
		return eofToken
	}
	return p.toks[p.pos+i]
}

// lookaheadIsTable reports whether TABLE appears at offset i, optionally
// preceded by CREATE-statement modifiers (TEMPORARY, GLOBAL, LOCAL,
// UNLOGGED, OR REPLACE).
func (p *stmtParser) lookaheadIsTable(i int) bool {
	for off := i; off < i+4; off++ {
		t := p.peekAt(off)
		switch {
		case t.keywordIs("TABLE"):
			return true
		case t.keywordIs("TEMPORARY"), t.keywordIs("TEMP"), t.keywordIs("UNLOGGED"),
			t.keywordIs("GLOBAL"), t.keywordIs("LOCAL"):
			continue
		case t.keywordIs("OR"), t.keywordIs("REPLACE"):
			continue
		default:
			return false
		}
	}
	return false
}

func (p *stmtParser) skipped(keyword string) *SkippedStatement {
	return p.arena.newSkipped(p.raw, p.line, keyword)
}

func (p *stmtParser) errf(format string, args ...any) error {
	return p.errc(CodeSynToken, format, args...)
}

// errc builds a coded ParseError at the cursor. At end of statement the
// position points just past the last token — where input ran out.
func (p *stmtParser) errc(code, format string, args ...any) error {
	line, pos := p.line, 0
	switch {
	case !p.done():
		t := p.peek()
		line, pos = t.line, t.pos
	case len(p.toks) > 0:
		t := p.toks[len(p.toks)-1]
		line, pos = t.line, t.pos+len(t.text)
	}
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...), Pos: pos, Code: code}
}

// acceptKeyword consumes the next token if it is the given keyword.
func (p *stmtParser) acceptKeyword(kw string) bool {
	if p.peek().keywordIs(kw) {
		p.advance()
		return true
	}
	return false
}

// acceptKeywords consumes the exact keyword sequence if fully present.
func (p *stmtParser) acceptKeywords(kws ...string) bool {
	for i, kw := range kws {
		if !p.peekAt(i).keywordIs(kw) {
			return false
		}
	}
	p.pos += len(kws)
	return true
}

func (p *stmtParser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %s %q", kw, p.peek().kind, p.peek().text)
	}
	return nil
}

func (p *stmtParser) acceptSymbol(s string) bool {
	if p.peek().symbolIs(s) {
		p.advance()
		return true
	}
	return false
}

func (p *stmtParser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errf("expected %q, found %s %q", s, p.peek().kind, p.peek().text)
	}
	return nil
}

// parseIdent accepts a bare or quoted identifier.
func (p *stmtParser) parseIdent() (string, error) {
	t := p.peek()
	if t.kind == tokIdent || t.kind == tokQuotedIdent {
		p.advance()
		return t.text, nil
	}
	return "", p.errf("expected identifier, found %s %q", t.kind, t.text)
}

// parseTableName parses a possibly qualified (and possibly over-qualified,
// db.schema.table) name, keeping the last qualifier as Schema.
func (p *stmtParser) parseTableName() (TableName, error) {
	first, err := p.parseIdent()
	if err != nil {
		return TableName{}, err
	}
	name := TableName{Name: first}
	for p.acceptSymbol(".") {
		part, err := p.parseIdent()
		if err != nil {
			return TableName{}, err
		}
		name.Schema = name.Name
		name.Name = part
	}
	return name, nil
}

// --- CREATE TABLE ---

func (p *stmtParser) parseCreateTable() (Statement, error) {
	ct := p.arena.newCreateTable(p.raw, p.line)
	p.advance() // CREATE
	for {
		switch {
		case p.acceptKeyword("TEMPORARY"), p.acceptKeyword("TEMP"):
			ct.Temporary = true
		case p.acceptKeyword("UNLOGGED"), p.acceptKeyword("GLOBAL"), p.acceptKeyword("LOCAL"):
		case p.acceptKeywords("OR", "REPLACE"):
		default:
			goto table
		}
	}
table:
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	if p.acceptKeywords("IF", "NOT", "EXISTS") {
		ct.IfNotExists = true
	}
	name, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	ct.Name = name

	if p.peek().keywordIs("AS") || p.peek().keywordIs("SELECT") || p.peek().keywordIs("LIKE") {
		ct.AsSelect = true
		p.pos = len(p.toks)
		return ct, nil
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	// Columns and constraints accumulate in the arena's slabs; the
	// table's spans are cut once the element list closes.
	colStart, conStart := len(p.arena.colSlab), len(p.arena.conSlab)
	for {
		if p.acceptSymbol(")") {
			break
		}
		if p.done() {
			return nil, p.errc(CodeSynList, "unterminated CREATE TABLE element list for %s", ct.Name)
		}
		if isConstraintStart(p) {
			c, ok, err := p.parseTableConstraint()
			if err != nil {
				return nil, err
			}
			if ok {
				p.arena.conSlab = append(p.arena.conSlab, c)
			}
		} else {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			p.arena.colSlab = append(p.arena.colSlab, col)
		}
		if p.acceptSymbol(",") {
			continue
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		break
	}
	ct.Columns = cut(p.arena.colSlab, colStart)
	ct.Constraints = cut(p.arena.conSlab, conStart)
	// Everything after the element list is table options (ENGINE=...,
	// charset, partitioning); irrelevant at the logical level.
	p.pos = len(p.toks)
	return ct, nil
}

// isConstraintStart reports whether the cursor begins a table-level
// constraint rather than a column definition.
func isConstraintStart(p *stmtParser) bool {
	t := p.peek()
	for _, kw := range []string{"CONSTRAINT", "PRIMARY", "FOREIGN", "CHECK", "EXCLUDE", "FULLTEXT", "SPATIAL", "LIKE"} {
		if t.keywordIs(kw) {
			return true
		}
	}
	// UNIQUE / KEY / INDEX open a constraint only when not used as a column
	// name; a following identifier or '(' disambiguates. "KEY (id)" and
	// "UNIQUE idx_name (a)" are constraints; "key VARCHAR(9)" is a column.
	if t.keywordIs("UNIQUE") || t.keywordIs("KEY") || t.keywordIs("INDEX") {
		nxt := p.peekAt(1)
		if nxt.symbolIs("(") {
			return true
		}
		if nxt.keywordIs("KEY") || nxt.keywordIs("INDEX") {
			return true
		}
		if nxt.kind == tokIdent || nxt.kind == tokQuotedIdent {
			// "UNIQUE name (col..." / "KEY name (col..." name an index, but
			// "key VARCHAR(9)" is a column whose type takes numeric
			// arguments: a key-column list must start with an identifier or
			// an expression, never a number.
			after := p.peekAt(2)
			if after.keywordIs("USING") {
				return true
			}
			if after.symbolIs("(") {
				inner := p.peekAt(3)
				return inner.kind == tokIdent || inner.kind == tokQuotedIdent || inner.symbolIs("(")
			}
		}
	}
	return false
}

// parseColumnDef parses one column definition (used by CREATE TABLE and the
// ALTER actions).
func (p *stmtParser) parseColumnDef() (ColumnDef, error) {
	var col ColumnDef
	name, err := p.parseIdent()
	if err != nil {
		return col, err
	}
	col.Name = name
	typ, err := p.parseDataType()
	if err != nil {
		return col, err
	}
	col.Type = typ
	if err := p.parseColumnOptions(&col); err != nil {
		return col, err
	}
	return col, nil
}

// multiWordTypes maps a leading type word to the type names of more than
// one word it may begin, each before any name that is its prefix.
var multiWordTypes = map[string][]string{
	"DOUBLE":    {"DOUBLE PRECISION"},
	"CHARACTER": {"CHARACTER VARYING"},
	"CHAR":      {"CHAR VARYING"},
	"BIT":       {"BIT VARYING"},
	"LONG":      {"LONG VARBINARY", "LONG VARCHAR"},
	"NATIONAL": {"NATIONAL CHARACTER VARYING", "NATIONAL CHARACTER",
		"NATIONAL CHAR VARYING", "NATIONAL CHAR", "NATIONAL VARCHAR"},
}

// zonedTypes is multiWordTypes for TIMESTAMP/TIME WITH/WITHOUT TIME ZONE,
// whose qualifier follows the precision argument.
var zonedTypes = map[string][]string{
	"TIMESTAMP": {"TIMESTAMP WITH TIME ZONE", "TIMESTAMP WITHOUT TIME ZONE"},
	"TIME":      {"TIME WITH TIME ZONE", "TIME WITHOUT TIME ZONE"},
}

// extendTypeName replaces dt.Name with the first of names[dt.Name] whose
// remaining words come next, consuming them.
func (p *stmtParser) extendTypeName(names map[string][]string, dt *DataType) {
	for _, name := range names[dt.Name] {
		if p.acceptWords(name[len(dt.Name)+1:]) {
			dt.Name = name
			return
		}
	}
}

// acceptWords is acceptKeywords for keywords given as one space-separated
// string.
func (p *stmtParser) acceptWords(words string) bool {
	n := 0
	for rest := words; rest != ""; n++ {
		var w string
		w, rest, _ = strings.Cut(rest, " ")
		if !p.peekAt(n).keywordIs(w) {
			return false
		}
	}
	p.pos += n
	return true
}

// parseDataType parses a SQL type with optional arguments and modifiers.
func (p *stmtParser) parseDataType() (DataType, error) {
	var dt DataType
	first, err := p.parseIdent()
	if err != nil {
		return dt, p.errf("expected data type: %v", err)
	}
	dt.Name = upperASCII(first)
	p.extendTypeName(multiWordTypes, &dt)
	if p.acceptSymbol("(") {
		args, err := p.parseTypeArgs()
		if err != nil {
			return dt, err
		}
		dt.Args = args
	}
	p.extendTypeName(zonedTypes, &dt)
	for {
		switch {
		case p.acceptKeyword("UNSIGNED"):
			dt.Unsigned = true
		case p.acceptKeyword("SIGNED"):
		case p.acceptKeyword("ZEROFILL"):
			dt.Zerofill = true
		case p.acceptKeyword("ARRAY"):
			dt.Array = true
		case p.peek().symbolIs("["):
			p.advance()
			// optional dimension
			if p.peek().kind == tokNumber {
				p.advance()
			}
			if err := p.expectSymbol("]"); err != nil {
				return dt, err
			}
			dt.Array = true
		default:
			return dt, nil
		}
	}
}

// parseTypeArgs reads the comma-separated literal arguments of a type up to
// the closing parenthesis into the arena's string slab. An argument ended
// by ',' is kept even when empty; the one ended by ')' only when its text
// is not empty, so INT() has no arguments.
func (p *stmtParser) parseTypeArgs() ([]string, error) {
	start, from := len(p.arena.strSlab), p.pos
	for {
		t := p.peek()
		switch {
		case t.kind == tokEOF:
			return nil, p.errc(CodeSynList, "unterminated type argument list")
		case t.symbolIs(")"):
			if arg := p.typeArg(p.toks[from:p.pos]); arg != "" {
				p.arena.strSlab = append(p.arena.strSlab, arg)
			}
			p.advance()
			return cut(p.arena.strSlab, start), nil
		case t.symbolIs(","):
			p.arena.strSlab = append(p.arena.strSlab, p.typeArg(p.toks[from:p.pos]))
			p.advance()
			from = p.pos
		default:
			p.advance()
		}
	}
}

// typeArg returns the text of one type argument: its tokens' texts
// concatenated, strings re-quoted in single quotes so ENUM values compare
// stably. A one-token argument is its token's text, or for a string the
// quoted source text itself; only an argument of several tokens, or a
// string the source spells otherwise, allocates.
func (p *stmtParser) typeArg(toks []token) string {
	if len(toks) == 1 {
		if toks[0].kind == tokString {
			return p.arena.quotedString(toks[0])
		}
		return toks[0].text
	}
	n := 0
	for _, t := range toks {
		n += len(t.text)
		if t.kind == tokString {
			n += 2
		}
	}
	if n == 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(n)
	for _, t := range toks {
		if t.kind == tokString {
			b.WriteByte('\'')
			b.WriteString(t.text)
			b.WriteByte('\'')
		} else {
			b.WriteString(t.text)
		}
	}
	return b.String()
}

// quotedString returns string token t in single quotes: the source text
// itself when the source spells it exactly so (no escapes, single
// quotes), else a copy.
func (p *Parser) quotedString(t token) string {
	if end := t.pos + len(t.text) + 2; end <= len(p.src) && p.src[t.pos] == '\'' &&
		p.src[end-1] == '\'' && p.src[t.pos+1:end-1] == t.text {
		return p.src[t.pos:end]
	}
	return "'" + t.text + "'"
}

// parseColumnOptions consumes the option clauses after a column's type
// until a top-level ',' or ')' or end of action.
func (p *stmtParser) parseColumnOptions(col *ColumnDef) error {
	for {
		t := p.peek()
		switch {
		case t.kind == tokEOF, t.symbolIs(","), t.symbolIs(")"):
			return nil
		case p.acceptKeywords("NOT", "NULL"):
			col.NotNull = true
		case p.acceptKeyword("NULL"):
			col.Null = true
		case p.acceptKeyword("DEFAULT"):
			expr, err := p.parseExprText()
			if err != nil {
				return err
			}
			col.Default, col.HasDefault = expr, true
		case p.acceptKeyword("AUTO_INCREMENT"), p.acceptKeyword("AUTOINCREMENT"):
			col.AutoIncrement = true
		case p.acceptKeywords("PRIMARY", "KEY"):
			col.PrimaryKey = true
		case p.acceptKeyword("UNIQUE"):
			p.acceptKeyword("KEY")
			col.Unique = true
		case p.acceptKeyword("REFERENCES"):
			ref, err := p.parseForeignKeyRef()
			if err != nil {
				return err
			}
			col.References = ref
		case p.acceptKeyword("CHECK"):
			if _, err := p.parseBalancedText(); err != nil {
				return err
			}
		case p.acceptKeyword("COMMENT"):
			if p.peek().kind == tokString {
				col.Comment = p.advance().text
			} else {
				p.advance()
			}
		case p.acceptKeyword("COLLATE"):
			p.advance()
		case p.acceptKeywords("CHARACTER", "SET"), p.acceptKeyword("CHARSET"):
			p.advance()
		case p.acceptKeywords("ON", "UPDATE"), p.acceptKeywords("ON", "DELETE"):
			if _, err := p.parseExprText(); err != nil {
				return err
			}
		case p.acceptKeyword("GENERATED"):
			if err := p.parseGenerated(col); err != nil {
				return err
			}
		case p.acceptKeyword("CONSTRAINT"):
			// Named inline constraint: consume the name, the constraint
			// body follows and is handled by the next iteration.
			if _, err := p.parseIdent(); err != nil {
				return err
			}
		case p.acceptKeyword("FIRST"):
		case p.acceptKeyword("AFTER"):
			if _, err := p.parseIdent(); err != nil {
				return err
			}
		default:
			// Unknown option word (STORAGE, SRID, vendor noise): consume a
			// single token — and its parenthesized payload, if any — so we
			// always make progress.
			p.advance()
			if p.peek().symbolIs("(") {
				p.advance()
				if _, err := p.parseBalancedTail(); err != nil {
					return err
				}
			}
		}
	}
}

// parseGenerated handles GENERATED {ALWAYS|BY DEFAULT} AS {IDENTITY|(expr)}
// [STORED|VIRTUAL].
func (p *stmtParser) parseGenerated(col *ColumnDef) error {
	p.acceptKeyword("ALWAYS")
	p.acceptKeywords("BY", "DEFAULT")
	if err := p.expectKeyword("AS"); err != nil {
		return err
	}
	if p.acceptKeyword("IDENTITY") {
		col.AutoIncrement = true
		if p.peek().symbolIs("(") {
			p.advance()
			if _, err := p.parseBalancedTail(); err != nil {
				return err
			}
		}
		return nil
	}
	if p.acceptKeyword("CHECK") { // rare vendor form
		_, err := p.parseBalancedText()
		return err
	}
	if _, err := p.parseBalancedText(); err != nil {
		return err
	}
	p.acceptKeyword("STORED")
	p.acceptKeyword("VIRTUAL")
	return nil
}

// parseExprText consumes one scalar expression (a DEFAULT value, an ON
// UPDATE expression) and returns its canonical text.
func (p *stmtParser) parseExprText() (string, error) {
	var b strings.Builder
	t := p.peek()
	switch {
	case t.kind == tokEOF:
		return "", p.errf("expected expression")
	case t.symbolIs("("):
		p.advance()
		inner, err := p.parseBalancedTail()
		if err != nil {
			return "", err
		}
		b.WriteByte('(')
		b.WriteString(inner)
		b.WriteByte(')')
	case t.symbolIs("-") || t.symbolIs("+"):
		p.advance()
		rest, err := p.parseExprText()
		if err != nil {
			return "", err
		}
		b.WriteString(t.text)
		b.WriteString(rest)
		return b.String(), nil
	case t.kind == tokString:
		p.advance()
		b.WriteByte('\'')
		b.WriteString(t.text)
		b.WriteByte('\'')
	case t.kind == tokNumber:
		p.advance()
		b.WriteString(t.text)
	case t.kind == tokIdent || t.kind == tokQuotedIdent:
		p.advance()
		b.WriteString(upperASCII(t.text))
		// b'0' / x'ff' typed literals and function calls.
		if p.peek().kind == tokString && (strings.EqualFold(t.text, "b") || strings.EqualFold(t.text, "x") || strings.EqualFold(t.text, "n")) {
			b.WriteByte('\'')
			b.WriteString(p.advance().text)
			b.WriteByte('\'')
		} else if p.peek().symbolIs("(") {
			p.advance()
			inner, err := p.parseBalancedTail()
			if err != nil {
				return "", err
			}
			b.WriteByte('(')
			b.WriteString(inner)
			b.WriteByte(')')
		}
	default:
		p.advance()
		b.WriteString(t.text)
	}
	// Postgres cast suffixes: 'x'::character varying.
	for p.acceptSymbol("::") {
		name, err := p.parseIdent()
		if err != nil {
			return "", err
		}
		b.WriteString("::")
		b.WriteString(upperASCII(name))
		for p.peek().kind == tokIdent {
			b.WriteByte(' ')
			b.WriteString(upperASCII(p.advance().text))
		}
		if p.peek().symbolIs("(") {
			p.advance()
			inner, err := p.parseBalancedTail()
			if err != nil {
				return "", err
			}
			b.WriteByte('(')
			b.WriteString(inner)
			b.WriteByte(')')
		}
	}
	return b.String(), nil
}

// parseBalancedText expects '(' and consumes through the matching ')',
// returning the inner text.
func (p *stmtParser) parseBalancedText() (string, error) {
	if err := p.expectSymbol("("); err != nil {
		return "", err
	}
	return p.parseBalancedTail()
}

// parseBalancedTail consumes tokens through the ')' matching an already
// consumed '(' and returns the inner text.
func (p *stmtParser) parseBalancedTail() (string, error) {
	depth := 1
	var b strings.Builder
	for {
		t := p.peek()
		switch {
		case t.kind == tokEOF:
			return "", p.errc(CodeSynList, "unbalanced parentheses")
		case t.symbolIs("("):
			depth++
		case t.symbolIs(")"):
			depth--
			if depth == 0 {
				p.advance()
				return strings.TrimSpace(b.String()), nil
			}
		}
		p.advance()
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if t.kind == tokString {
			b.WriteByte('\'')
			b.WriteString(t.text)
			b.WriteByte('\'')
		} else {
			b.WriteString(t.text)
		}
	}
}

// parseForeignKeyRef parses REFERENCES table [(cols)] [MATCH ...]
// [ON DELETE action] [ON UPDATE action].
func (p *stmtParser) parseForeignKeyRef() (*ForeignKeyRef, error) {
	table, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	ref := p.arena.newRef(table)
	if p.acceptSymbol("(") {
		cols, err := p.parseKeyColumns()
		if err != nil {
			return nil, err
		}
		ref.Columns = cols
	}
	for {
		switch {
		case p.acceptKeyword("MATCH"):
			p.advance()
		case p.acceptKeywords("ON", "DELETE"):
			action, err := p.parseRefAction()
			if err != nil {
				return nil, err
			}
			ref.OnDelete = action
		case p.acceptKeywords("ON", "UPDATE"):
			action, err := p.parseRefAction()
			if err != nil {
				return nil, err
			}
			ref.OnUpdate = action
		case p.acceptKeyword("DEFERRABLE"), p.acceptKeywords("NOT", "DEFERRABLE"):
		case p.acceptKeywords("INITIALLY", "DEFERRED"), p.acceptKeywords("INITIALLY", "IMMEDIATE"):
		default:
			return ref, nil
		}
	}
}

func (p *stmtParser) parseRefAction() (string, error) {
	switch {
	case p.acceptKeyword("CASCADE"):
		return "CASCADE", nil
	case p.acceptKeyword("RESTRICT"):
		return "RESTRICT", nil
	case p.acceptKeywords("SET", "NULL"):
		return "SET NULL", nil
	case p.acceptKeywords("SET", "DEFAULT"):
		return "SET DEFAULT", nil
	case p.acceptKeywords("NO", "ACTION"):
		return "NO ACTION", nil
	default:
		return "", p.errf("expected referential action, found %q", p.peek().text)
	}
}

// parseKeyColumns reads "a, b(10) DESC, (lower(c))" style key column lists
// through the closing ')', reducing each entry to a column name (or a
// "<expr>" placeholder for expression indexes).
func (p *stmtParser) parseKeyColumns() ([]string, error) {
	start := len(p.arena.strSlab)
	for {
		t := p.peek()
		switch {
		case t.kind == tokEOF:
			return nil, p.errc(CodeSynList, "unterminated key column list")
		case t.symbolIs("("):
			p.advance()
			if _, err := p.parseBalancedTail(); err != nil {
				return nil, err
			}
			p.arena.strSlab = append(p.arena.strSlab, "<expr>")
		case t.kind == tokIdent || t.kind == tokQuotedIdent:
			p.advance()
			name := t.text
			if p.acceptSymbol("(") { // prefix length
				if _, err := p.parseBalancedTail(); err != nil {
					return nil, err
				}
			}
			p.acceptKeyword("ASC")
			p.acceptKeyword("DESC")
			p.arena.strSlab = append(p.arena.strSlab, name)
		default:
			return nil, p.errf("expected key column, found %s %q", t.kind, t.text)
		}
		if p.acceptSymbol(",") {
			continue
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return cut(p.arena.strSlab, start), nil
	}
}

// parseTableConstraint parses one table-level constraint element.
func (p *stmtParser) parseTableConstraint() (TableConstraint, bool, error) {
	var c TableConstraint
	if p.acceptKeyword("CONSTRAINT") {
		name, err := p.parseIdent()
		if err != nil {
			return TableConstraint{}, false, err
		}
		c.Name = name
	}
	switch {
	case p.acceptKeywords("PRIMARY", "KEY"):
		c.Kind = ConstraintPrimaryKey
		p.skipIndexOptions()
		cols, err := p.openKeyColumns()
		if err != nil {
			return TableConstraint{}, false, err
		}
		c.Columns = cols
	case p.acceptKeyword("UNIQUE"):
		c.Kind = ConstraintUnique
		p.acceptKeyword("KEY")
		p.acceptKeyword("INDEX")
		if name := p.optionalIndexName(); name != "" && c.Name == "" {
			c.Name = name
		}
		p.skipIndexOptions()
		cols, err := p.openKeyColumns()
		if err != nil {
			return TableConstraint{}, false, err
		}
		c.Columns = cols
	case p.acceptKeywords("FOREIGN", "KEY"):
		c.Kind = ConstraintForeignKey
		if name := p.optionalIndexName(); name != "" && c.Name == "" {
			c.Name = name
		}
		cols, err := p.openKeyColumns()
		if err != nil {
			return TableConstraint{}, false, err
		}
		c.Columns = cols
		if err := p.expectKeyword("REFERENCES"); err != nil {
			return TableConstraint{}, false, err
		}
		ref, err := p.parseForeignKeyRef()
		if err != nil {
			return TableConstraint{}, false, err
		}
		c.Ref = ref
	case p.acceptKeyword("CHECK"):
		c.Kind = ConstraintCheck
		body, err := p.parseBalancedText()
		if err != nil {
			return TableConstraint{}, false, err
		}
		c.Check = body
		p.acceptKeywords("NOT", "ENFORCED")
		p.acceptKeyword("ENFORCED")
	case p.acceptKeyword("KEY"), p.acceptKeyword("INDEX"):
		c.Kind = ConstraintIndex
		if name := p.optionalIndexName(); name != "" && c.Name == "" {
			c.Name = name
		}
		p.skipIndexOptions()
		cols, err := p.openKeyColumns()
		if err != nil {
			return TableConstraint{}, false, err
		}
		c.Columns = cols
	case p.acceptKeyword("FULLTEXT"), p.acceptKeyword("SPATIAL"):
		c.Kind = ConstraintIndex
		p.acceptKeyword("KEY")
		p.acceptKeyword("INDEX")
		if name := p.optionalIndexName(); name != "" && c.Name == "" {
			c.Name = name
		}
		cols, err := p.openKeyColumns()
		if err != nil {
			return TableConstraint{}, false, err
		}
		c.Columns = cols
	case p.acceptKeyword("EXCLUDE"), p.acceptKeyword("LIKE"):
		// Postgres EXCLUDE constraints and LIKE clauses: consume through
		// the element's end; they carry no attribute-level information.
		p.skipElement()
		return TableConstraint{}, false, nil
	default:
		return TableConstraint{}, false, p.errf("expected table constraint, found %q", p.peek().text)
	}
	// Trailing constraint attributes (USING BTREE, DEFERRABLE, comments).
	p.skipIndexOptions()
	for {
		switch {
		case p.acceptKeyword("DEFERRABLE"), p.acceptKeywords("NOT", "DEFERRABLE"),
			p.acceptKeywords("INITIALLY", "DEFERRED"), p.acceptKeywords("INITIALLY", "IMMEDIATE"):
		case p.acceptKeyword("COMMENT"):
			p.advance()
		default:
			return c, true, nil
		}
	}
}

// optionalIndexName consumes an identifier when it is followed by '(' or
// USING (i.e. it names an index rather than starting the column list).
func (p *stmtParser) optionalIndexName() string {
	t := p.peek()
	if (t.kind == tokIdent || t.kind == tokQuotedIdent) &&
		(p.peekAt(1).symbolIs("(") || p.peekAt(1).keywordIs("USING")) {
		p.advance()
		return t.text
	}
	return ""
}

// skipIndexOptions consumes USING BTREE/HASH/GIN-style clauses.
func (p *stmtParser) skipIndexOptions() {
	for p.acceptKeyword("USING") {
		p.advance()
	}
}

// openKeyColumns expects '(' and parses the key column list.
func (p *stmtParser) openKeyColumns() ([]string, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	return p.parseKeyColumns()
}

// skipElement consumes tokens until the enclosing element's ',' or ')' at
// depth zero.
func (p *stmtParser) skipElement() {
	depth := 0
	for !p.done() {
		t := p.peek()
		switch {
		case t.symbolIs("("):
			depth++
		case t.symbolIs(")"):
			if depth == 0 {
				return
			}
			depth--
		case t.symbolIs(","):
			if depth == 0 {
				return
			}
		}
		p.advance()
	}
}

// --- DROP TABLE ---

func (p *stmtParser) parseDropTable() (Statement, error) {
	dt := p.arena.newDropTable(p.raw, p.line)
	p.advance() // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	if p.acceptKeywords("IF", "EXISTS") {
		dt.IfExists = true
	}
	start := len(p.arena.nameSlab)
	for {
		name, err := p.parseTableName()
		if err != nil {
			return nil, err
		}
		p.arena.nameSlab = append(p.arena.nameSlab, name)
		if !p.acceptSymbol(",") {
			break
		}
	}
	dt.Names = cut(p.arena.nameSlab, start)
	p.acceptKeyword("CASCADE")
	p.acceptKeyword("RESTRICT")
	if !p.done() {
		return nil, p.errc(CodeSynTrail, "unexpected trailing tokens in DROP TABLE: %q", p.peek().text)
	}
	return dt, nil
}

// --- RENAME TABLE ---

func (p *stmtParser) parseRenameTable() (Statement, error) {
	rt := p.arena.newRenameTable(p.raw, p.line)
	p.advance() // RENAME
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	start := len(p.arena.renSlab)
	for {
		from, err := p.parseTableName()
		if err != nil {
			return nil, err
		}
		if !p.acceptKeyword("TO") && !p.acceptKeyword("AS") {
			return nil, p.errf("expected TO in RENAME TABLE")
		}
		to, err := p.parseTableName()
		if err != nil {
			return nil, err
		}
		p.arena.renSlab = append(p.arena.renSlab, TableRename{From: from, To: to})
		if !p.acceptSymbol(",") {
			break
		}
	}
	rt.Renames = cut(p.arena.renSlab, start)
	return rt, nil
}

// --- ALTER TABLE ---

func (p *stmtParser) parseAlterTable() (Statement, error) {
	at := p.arena.newAlterTable(p.raw, p.line)
	p.advance() // ALTER
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	if p.acceptKeywords("IF", "EXISTS") {
		at.IfExists = true
	}
	p.acceptKeyword("ONLY")
	name, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	at.Name = name
	start := len(p.arena.actSlab)
	for {
		if p.done() {
			break
		}
		action, err := p.parseAlterAction()
		if err != nil {
			return nil, err
		}
		if action != nil {
			p.arena.actSlab = append(p.arena.actSlab, action)
		}
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	at.Actions = cut(p.arena.actSlab, start)
	if !p.done() {
		return nil, p.errc(CodeSynTrail, "unexpected trailing tokens in ALTER TABLE: %q", p.peek().text)
	}
	return at, nil
}

func (p *stmtParser) parseAlterAction() (AlterAction, error) {
	switch {
	case p.acceptKeyword("ADD"):
		return p.parseAddAction()
	case p.acceptKeyword("DROP"):
		return p.parseDropAction()
	case p.acceptKeyword("MODIFY"):
		p.acceptKeyword("COLUMN")
		col, err := p.parseAlterColumnDef()
		if err != nil {
			return nil, err
		}
		return ModifyColumn{Column: col}, nil
	case p.acceptKeyword("CHANGE"):
		p.acceptKeyword("COLUMN")
		oldName, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		col, err := p.parseAlterColumnDef()
		if err != nil {
			return nil, err
		}
		return ChangeColumn{OldName: oldName, Column: col}, nil
	case p.acceptKeyword("ALTER"):
		p.acceptKeyword("COLUMN")
		return p.parseAlterColumnAction()
	case p.acceptKeyword("RENAME"):
		switch {
		case p.acceptKeyword("COLUMN"):
			oldName, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("TO"); err != nil {
				return nil, err
			}
			newName, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			return RenameColumn{OldName: oldName, NewName: newName}, nil
		case p.acceptKeyword("TO"), p.acceptKeyword("AS"):
			newName, err := p.parseTableName()
			if err != nil {
				return nil, err
			}
			return RenameTo{NewName: newName}, nil
		default:
			// RENAME INDEX old TO new and friends.
			return p.unknownAction("RENAME"), nil
		}
	default:
		t := p.peek()
		return p.unknownAction(upperASCII(t.text)), nil
	}
}

// parseAlterColumnDef parses the column definition of an ADD/MODIFY/CHANGE
// action, tolerating the position suffix (FIRST / AFTER col).
func (p *stmtParser) parseAlterColumnDef() (ColumnDef, error) {
	col, err := p.parseColumnDefUntilActionEnd()
	return col, err
}

// parseColumnDefUntilActionEnd is parseColumnDef, but option parsing stops
// at a top-level ',' (the next ALTER action) as well as ')' and EOF —
// which parseColumnOptions already does.
func (p *stmtParser) parseColumnDefUntilActionEnd() (ColumnDef, error) {
	return p.parseColumnDef()
}

func (p *stmtParser) parseAddAction() (AlterAction, error) {
	if isConstraintStart(p) {
		c, ok, err := p.parseTableConstraint()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
		return AddConstraint{Constraint: c}, nil
	}
	p.acceptKeyword("COLUMN")
	var ifNotExists bool
	if p.acceptKeywords("IF", "NOT", "EXISTS") {
		ifNotExists = true
	}
	col, err := p.parseAlterColumnDef()
	if err != nil {
		return nil, err
	}
	return AddColumn{Column: col, IfNotExists: ifNotExists}, nil
}

func (p *stmtParser) parseDropAction() (AlterAction, error) {
	switch {
	case p.acceptKeywords("PRIMARY", "KEY"):
		return DropConstraint{Kind: ConstraintPrimaryKey}, nil
	case p.acceptKeywords("FOREIGN", "KEY"):
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		return DropConstraint{Kind: ConstraintForeignKey, Name: name}, nil
	case p.acceptKeyword("CONSTRAINT"):
		p.acceptKeywords("IF", "EXISTS")
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		p.acceptKeyword("CASCADE")
		p.acceptKeyword("RESTRICT")
		return DropConstraint{Kind: ConstraintCheck, Name: name}, nil
	case p.acceptKeyword("INDEX"), p.acceptKeyword("KEY"):
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		return DropConstraint{Kind: ConstraintIndex, Name: name}, nil
	default:
		p.acceptKeyword("COLUMN")
		var ifExists bool
		if p.acceptKeywords("IF", "EXISTS") {
			ifExists = true
		}
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		p.acceptKeyword("CASCADE")
		p.acceptKeyword("RESTRICT")
		return DropColumn{Name: name, IfExists: ifExists}, nil
	}
}

// parseAlterColumnAction handles the Postgres ALTER COLUMN forms.
func (p *stmtParser) parseAlterColumnAction() (AlterAction, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("TYPE"), p.acceptKeywords("SET", "DATA", "TYPE"):
		typ, err := p.parseDataType()
		if err != nil {
			return nil, err
		}
		// USING conversion expressions are irrelevant logically.
		if p.acceptKeyword("USING") {
			p.skipActionRest()
		}
		return AlterColumnType{Name: name, Type: typ}, nil
	case p.acceptKeywords("SET", "NOT", "NULL"):
		return AlterColumnNullability{Name: name, NotNull: true}, nil
	case p.acceptKeywords("DROP", "NOT", "NULL"):
		return AlterColumnNullability{Name: name, NotNull: false}, nil
	case p.acceptKeywords("SET", "DEFAULT"):
		expr, err := p.parseExprText()
		if err != nil {
			return nil, err
		}
		return AlterColumnDefault{Name: name, Default: expr}, nil
	case p.acceptKeywords("DROP", "DEFAULT"):
		return AlterColumnDefault{Name: name, Drop: true}, nil
	default:
		return p.unknownAction("ALTER COLUMN " + name), nil
	}
}

// unknownAction records and consumes an unmodeled ALTER action through the
// next top-level comma.
func (p *stmtParser) unknownAction(label string) UnknownAction {
	start := p.pos
	p.skipActionRest()
	var b strings.Builder
	b.WriteString(label)
	for i := start; i < p.pos; i++ {
		b.WriteByte(' ')
		b.WriteString(p.toks[i].text)
	}
	return UnknownAction{Text: strings.TrimSpace(b.String())}
}

// skipActionRest consumes tokens until a top-level ',' or the end of the
// statement.
func (p *stmtParser) skipActionRest() {
	depth := 0
	for !p.done() {
		t := p.peek()
		switch {
		case t.symbolIs("("):
			depth++
		case t.symbolIs(")"):
			depth--
		case t.symbolIs(","):
			if depth == 0 {
				return
			}
		}
		p.advance()
	}
}
