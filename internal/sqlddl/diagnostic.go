package sqlddl

import (
	"fmt"
	"strings"
)

// Diagnostic is one categorized parse problem with its source position.
// ParseWithDiagnostics and its Parser and pooled variants return one
// Diagnostic per problem a recovering parse survived, so a mining
// pipeline can report parse health instead of dropping input silently.
type Diagnostic struct {
	// Code is the stable machine-readable code, e.g. "DDL-SYN-001". The
	// taxonomy is documented in DESIGN.md; codes never change meaning.
	Code string
	// Category is the code's family: "lex" (tokenization failed and the
	// parser resynchronized at the next statement boundary), "syntax"
	// (one statement was malformed and demoted to SkippedStatement) or
	// "semantic" (the statement parsed but could not be applied to the
	// schema — produced by internal/schema, not by this package).
	Category string
	// Line and Col locate the problem (1-based; Col is a byte column).
	Line, Col int
	// Msg is the human-readable description.
	Msg string
	// Snippet is the trimmed source line the problem sits on, truncated
	// for report display.
	Snippet string
}

// String renders the diagnostic in the file:line:col style used by
// `coevo parse`.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%d:%d: %s [%s] %s", d.Line, d.Col, d.Code, d.Category, d.Msg)
}

// The diagnostic code taxonomy. Lex codes mean the tokenizer lost its
// footing and the parser dropped source up to the next statement
// boundary; syntax codes mean a single statement was demoted; semantic
// codes are reserved for schema application (see internal/schema).
const (
	CodeLexString  = "DDL-LEX-001" // unterminated string literal
	CodeLexQuoted  = "DDL-LEX-002" // unterminated quoted identifier
	CodeLexComment = "DDL-LEX-003" // unterminated block comment
	CodeLexDollar  = "DDL-LEX-004" // unterminated dollar-quoted string
	CodeSynToken   = "DDL-SYN-001" // unexpected or missing token
	CodeSynList    = "DDL-SYN-002" // unterminated list / unbalanced parentheses
	CodeSynTrail   = "DDL-SYN-003" // trailing tokens after a complete statement
	CodeSemApply   = "DDL-SEM-001" // statement could not be applied to the schema
)

// Diagnostic categories, derived from the code prefix.
const (
	CategoryLex      = "lex"
	CategorySyntax   = "syntax"
	CategorySemantic = "semantic"
)

// CategoryOf maps a diagnostic code to its category. Unknown codes map
// to "" so report layers can flag them instead of misfiling them.
func CategoryOf(code string) string {
	switch {
	case strings.HasPrefix(code, "DDL-LEX-"):
		return CategoryLex
	case strings.HasPrefix(code, "DDL-SYN-"):
		return CategorySyntax
	case strings.HasPrefix(code, "DDL-SEM-"):
		return CategorySemantic
	default:
		return ""
	}
}

// ParseStats counts what happened to each statement of one parse. The
// invariant is Attempted == Parsed + Recovered + Dropped.
type ParseStats struct {
	// Attempted counts non-empty statements the parser saw, including
	// regions lost to lexical resynchronization.
	Attempted int
	// Parsed counts statements that came back as modeled DDL or as a
	// deliberately tolerated SkippedStatement (non-DDL such as INSERTs).
	Parsed int
	// Recovered counts malformed DDL statements demoted to
	// SkippedStatement with a syntax Diagnostic.
	Recovered int
	// Dropped counts statements abandoned during lexical recovery: their
	// tokens could not be trusted, so only a Diagnostic remains.
	Dropped int
}

// Add accumulates other into s.
func (s *ParseStats) Add(other ParseStats) {
	s.Attempted += other.Attempted
	s.Parsed += other.Parsed
	s.Recovered += other.Recovered
	s.Dropped += other.Dropped
}

// Clean reports whether every statement parsed without recovery.
func (s ParseStats) Clean() bool { return s.Recovered == 0 && s.Dropped == 0 }

// maxSnippet bounds the snippet length carried in a Diagnostic.
const maxSnippet = 120

// diagnosticFromError builds the structured diagnostic for a *ParseError
// or *LexError produced while parsing src. Other error types (there are
// none today) degrade to an uncoded syntax diagnostic.
func diagnosticFromError(src string, err error) Diagnostic {
	var line, pos int
	var code, msg string
	switch e := err.(type) {
	case *ParseError:
		line, pos, code, msg = e.Line, e.Pos, e.Code, e.Msg
	case *LexError:
		line, pos, code, msg = e.Line, e.Pos, e.Code, e.Msg
	default:
		return Diagnostic{Code: CodeSynToken, Category: CategorySyntax, Line: 1, Col: 1, Msg: err.Error()}
	}
	if code == "" {
		code = CodeSynToken
	}
	col, snippet := locate(src, pos)
	return Diagnostic{
		Code:     code,
		Category: CategoryOf(code),
		Line:     line,
		Col:      col,
		Msg:      msg,
		Snippet:  snippet,
	}
}

// diagnosticsFromErrors converts the parser's internal error list to
// structured diagnostics. A clean parse returns nil, keeping the happy
// path allocation-free.
func diagnosticsFromErrors(src string, errs []error) []Diagnostic {
	if len(errs) == 0 {
		return nil
	}
	out := make([]Diagnostic, len(errs))
	for i, err := range errs {
		out[i] = diagnosticFromError(src, err)
	}
	return out
}

// locate converts a byte offset into a 1-based column and extracts the
// trimmed source line around it.
func locate(src string, pos int) (col int, snippet string) {
	if pos < 0 {
		pos = 0
	}
	if pos > len(src) {
		pos = len(src)
	}
	lineStart := strings.LastIndexByte(src[:pos], '\n') + 1
	col = pos - lineStart + 1
	lineEnd := strings.IndexByte(src[pos:], '\n')
	if lineEnd < 0 {
		lineEnd = len(src)
	} else {
		lineEnd += pos
	}
	snippet = strings.Trim(src[lineStart:lineEnd], lexWhitespace)
	if len(snippet) > maxSnippet {
		snippet = snippet[:maxSnippet] + "..."
	}
	return col, snippet
}
