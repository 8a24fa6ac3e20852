// Package sqlddl parses the subset of SQL data-definition language needed
// to reconstruct the logical schema of a project's DDL file: CREATE TABLE,
// ALTER TABLE, DROP TABLE and RENAME TABLE in the MySQL and PostgreSQL
// dialects (the two vendors the study's data set selects).
//
// Real-world .sql files in FOSS repositories interleave DDL with INSERTs,
// SETs, vendor directives and comments, so the parser is deliberately
// forgiving: statements it does not understand are preserved as
// SkippedStatement values rather than failing the whole script, mirroring
// how the original extraction tooling must behave to survive 195 projects'
// worth of hand-written SQL.
package sqlddl

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokQuotedIdent
	tokNumber
	tokString
	tokSymbol
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "EOF"
	case tokIdent:
		return "identifier"
	case tokQuotedIdent:
		return "quoted identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokSymbol:
		return "symbol"
	default:
		return "unknown"
	}
}

// token is one lexical unit. For quoted identifiers and strings, Text holds
// the unquoted value.
type token struct {
	kind tokenKind
	text string
	line int
	pos  int // byte offset of token start
}

// keywordIs reports whether the token is the given bare keyword,
// case-insensitively.
func (t token) keywordIs(kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (t token) symbolIs(s string) bool {
	return t.kind == tokSymbol && t.text == s
}

// LexError reports a lexical problem with its line number. Pos is the
// byte offset of the offending construct and Code its diagnostic code;
// Error keeps the historical "sqlddl: line N: msg" shape.
type LexError struct {
	Line int
	Msg  string
	Pos  int
	Code string
}

func (e *LexError) Error() string { return fmt.Sprintf("sqlddl: line %d: %s", e.Line, e.Msg) }

// lexer tokenizes SQL text. Comments are skipped; strings and quoted
// identifiers are decoded. The dialect adapts the few lexical rules that
// differ between vendors; the zero value (Generic) is the permissive
// union.
type lexer struct {
	src     string
	off     int
	line    int
	dialect Dialect
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1}
}

// next returns the next token, or a tokEOF token at end of input.
func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	if l.off >= len(l.src) {
		return token{kind: tokEOF, line: l.line, pos: l.off}, nil
	}
	start, startLine := l.off, l.line
	c := l.src[l.off]

	switch {
	case c == '`':
		text, err := l.quoted('`', '`')
		if err != nil {
			return token{}, err
		}
		return token{kind: tokQuotedIdent, text: text, line: startLine, pos: start}, nil
	case c == '"':
		if l.dialect.doubleQuoteIsString() {
			// MySQL without ANSI_QUOTES: '"' delimits a string literal
			// with the same escape conventions as '...'.
			text, err := l.sqlString('"')
			if err != nil {
				return token{}, err
			}
			return token{kind: tokString, text: text, line: startLine, pos: start}, nil
		}
		text, err := l.quoted('"', '"')
		if err != nil {
			return token{}, err
		}
		return token{kind: tokQuotedIdent, text: text, line: startLine, pos: start}, nil
	case c == '[':
		// SQL Server style bracket quoting appears in a few histories;
		// accept it when the content looks like an identifier, otherwise
		// treat '[' as a symbol (Postgres array types use bare brackets).
		if text, ok := l.tryBracketIdent(); ok {
			return token{kind: tokQuotedIdent, text: text, line: startLine, pos: start}, nil
		}
		l.off++
		return token{kind: tokSymbol, text: "[", line: startLine, pos: start}, nil
	case c == '\'':
		text, err := l.sqlString('\'')
		if err != nil {
			return token{}, err
		}
		return token{kind: tokString, text: text, line: startLine, pos: start}, nil
	case c == '$':
		if text, ok, err := l.tryDollarString(); err != nil {
			return token{}, err
		} else if ok {
			return token{kind: tokString, text: text, line: startLine, pos: start}, nil
		}
		l.off++
		return token{kind: tokSymbol, text: "$", line: startLine, pos: start}, nil
	case isDigit(c) || (c == '.' && l.off+1 < len(l.src) && isDigit(l.src[l.off+1])):
		return token{kind: tokNumber, text: l.number(), line: startLine, pos: start}, nil
	case isIdentStart(c):
		return token{kind: tokIdent, text: l.ident(), line: startLine, pos: start}, nil
	default:
		// Multi-character operators that matter for expression skipping.
		// Matched against constants so lexing a symbol never allocates.
		if l.off+1 < len(l.src) {
			var op string
			switch c2 := l.src[l.off+1]; {
			case c == ':' && c2 == ':':
				op = "::"
			case c == '<' && c2 == '=':
				op = "<="
			case c == '>' && c2 == '=':
				op = ">="
			case c == '<' && c2 == '>':
				op = "<>"
			case c == '!' && c2 == '=':
				op = "!="
			case c == '|' && c2 == '|':
				op = "||"
			}
			if op != "" {
				l.off += 2
				return token{kind: tokSymbol, text: op, line: startLine, pos: start}, nil
			}
		}
		l.off++
		return token{kind: tokSymbol, text: l.src[start:l.off], line: startLine, pos: start}, nil
	}
}

func (l *lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch {
		case c == '\n':
			l.line++
			l.off++
		case c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v':
			l.off++
		case c == '-' && l.off+1 < len(l.src) && l.src[l.off+1] == '-':
			l.skipToLineEnd()
		case c == '#' && l.dialect.hashComments():
			l.skipToLineEnd()
		case c == '/' && l.off+1 < len(l.src) && l.src[l.off+1] == '*':
			if err := l.skipBlockComment(); err != nil {
				return err
			}
		default:
			return nil
		}
	}
	return nil
}

func (l *lexer) skipToLineEnd() {
	for l.off < len(l.src) && l.src[l.off] != '\n' {
		l.off++
	}
}

func (l *lexer) skipBlockComment() error {
	startLine, startPos := l.line, l.off
	l.off += 2
	for l.off+1 < len(l.src) {
		if l.src[l.off] == '\n' {
			l.line++
		}
		if l.src[l.off] == '*' && l.src[l.off+1] == '/' {
			l.off += 2
			return nil
		}
		l.off++
	}
	return &LexError{Line: startLine, Msg: "unterminated block comment", Pos: startPos, Code: CodeLexComment}
}

// quoted reads a delimiter-quoted identifier, honoring doubled delimiters
// as escapes (“ a“b “ and "a""b"). The common escape-free case returns a
// zero-copy slice of the input buffer; only escaped identifiers build a
// decoded copy.
func (l *lexer) quoted(open, close byte) (string, error) {
	startLine, startPos := l.line, l.off
	l.off++ // consume opening quote
	start := l.off
	for l.off < len(l.src) {
		c := l.src[l.off]
		if c == '\n' {
			l.line++
		}
		if c == close {
			if l.off+1 < len(l.src) && l.src[l.off+1] == close {
				return l.quotedSlow(open, close, startLine, startPos, l.src[start:l.off])
			}
			text := l.src[start:l.off]
			l.off++
			return text, nil
		}
		l.off++
	}
	return "", &LexError{Line: startLine, Msg: fmt.Sprintf("unterminated quoted identifier (%c)", open), Pos: startPos, Code: CodeLexQuoted}
}

// quotedSlow continues a quoted identifier from the first doubled
// delimiter, building the decoded text. The cursor sits on the doubled
// delimiter pair.
func (l *lexer) quotedSlow(open, close byte, startLine, startPos int, prefix string) (string, error) {
	var b strings.Builder
	b.WriteString(prefix)
	b.WriteByte(close)
	l.off += 2
	for l.off < len(l.src) {
		c := l.src[l.off]
		if c == '\n' {
			l.line++
		}
		if c == close {
			if l.off+1 < len(l.src) && l.src[l.off+1] == close {
				b.WriteByte(close)
				l.off += 2
				continue
			}
			l.off++
			return b.String(), nil
		}
		b.WriteByte(c)
		l.off++
	}
	return "", &LexError{Line: startLine, Msg: fmt.Sprintf("unterminated quoted identifier (%c)", open), Pos: startPos, Code: CodeLexQuoted}
}

// tryBracketIdent attempts to read a [bracketed] identifier; it backtracks
// and reports false if the bracket does not close on the same line without
// nested brackets (in which case '[' is punctuation, e.g. an array type).
func (l *lexer) tryBracketIdent() (string, bool) {
	end := l.off + 1
	// Array dimensions like INT[3] and bare INT[] are punctuation, not
	// quoting: a bracket identifier must start like an identifier.
	if end >= len(l.src) || !isIdentStart(l.src[end]) {
		return "", false
	}
	for end < len(l.src) {
		c := l.src[end]
		if c == ']' {
			text := l.src[l.off+1 : end]
			if text == "" {
				return "", false
			}
			l.off = end + 1
			return text, true
		}
		if c == '\n' || c == '[' {
			return "", false
		}
		end++
	}
	return "", false
}

// sqlString reads a quote-delimited string literal with both doubled
// quote and backslash escape conventions (MySQL accepts backslash
// escapes; Postgres the doubled-quote form). The quote is the single
// quote for every dialect, plus the double quote when the dialect treats
// double quotes as strings.
// Escape-free literals — the overwhelmingly common case — return a
// zero-copy slice of the input buffer.
func (l *lexer) sqlString(quote byte) (string, error) {
	startLine, startPos := l.line, l.off
	l.off++ // consume opening quote
	start := l.off
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch c {
		case '\n':
			l.line++
			l.off++
		case '\\':
			return l.sqlStringSlow(quote, startLine, startPos, l.src[start:l.off])
		case quote:
			if l.off+1 < len(l.src) && l.src[l.off+1] == quote {
				return l.sqlStringSlow(quote, startLine, startPos, l.src[start:l.off])
			}
			text := l.src[start:l.off]
			l.off++
			return text, nil
		default:
			l.off++
		}
	}
	return "", &LexError{Line: startLine, Msg: "unterminated string literal", Pos: startPos, Code: CodeLexString}
}

// sqlStringSlow continues a string literal from the first escape
// sequence, building the decoded text. The cursor sits on the escape's
// first byte ('\\' or the first of a doubled quote).
func (l *lexer) sqlStringSlow(quote byte, startLine, startPos int, prefix string) (string, error) {
	var b strings.Builder
	b.WriteString(prefix)
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch c {
		case '\n':
			l.line++
			b.WriteByte(c)
			l.off++
		case '\\':
			if l.off+1 < len(l.src) {
				b.WriteByte(l.src[l.off+1])
				l.off += 2
				continue
			}
			l.off++
		case quote:
			if l.off+1 < len(l.src) && l.src[l.off+1] == quote {
				b.WriteByte(quote)
				l.off += 2
				continue
			}
			l.off++
			return b.String(), nil
		default:
			b.WriteByte(c)
			l.off++
		}
	}
	return "", &LexError{Line: startLine, Msg: "unterminated string literal", Pos: startPos, Code: CodeLexString}
}

// tryDollarString reads a Postgres dollar-quoted string ($$...$$ or
// $tag$...$tag$). Reports ok=false when '$' does not open a valid tag.
func (l *lexer) tryDollarString() (string, bool, error) {
	rest := l.src[l.off:]
	end := strings.IndexByte(rest[1:], '$')
	if end < 0 {
		return "", false, nil
	}
	tag := rest[:end+2] // includes both '$'s
	for _, r := range tag[1 : len(tag)-1] {
		if !isIdentStart(byte(r)) && !unicode.IsDigit(r) {
			return "", false, nil
		}
	}
	body := rest[len(tag):]
	closeIdx := strings.Index(body, tag)
	if closeIdx < 0 {
		return "", false, &LexError{Line: l.line, Msg: "unterminated dollar-quoted string", Pos: l.off, Code: CodeLexDollar}
	}
	content := body[:closeIdx]
	l.line += strings.Count(rest[:len(tag)+closeIdx+len(tag)], "\n")
	l.off += len(tag) + closeIdx + len(tag)
	return content, true, nil
}

func (l *lexer) number() string {
	start := l.off
	for l.off < len(l.src) {
		c := l.src[l.off]
		if isDigit(c) || c == '.' || c == 'e' || c == 'E' ||
			((c == '+' || c == '-') && l.off > start && (l.src[l.off-1] == 'e' || l.src[l.off-1] == 'E')) {
			l.off++
			continue
		}
		break
	}
	return l.src[start:l.off]
}

func (l *lexer) ident() string {
	start := l.off
	for l.off < len(l.src) && isIdentPart(l.src[l.off]) {
		l.off++
	}
	return l.src[start:l.off]
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || isDigit(c) || c == '$'
}
