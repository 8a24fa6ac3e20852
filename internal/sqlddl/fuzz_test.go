package sqlddl

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// fuzzParser is one Parser shared across every fuzz iteration — exactly
// the reuse pattern of the mining hot path. The mutex serializes access
// so the target stays safe if the harness ever runs iterations in
// parallel within one process.
var (
	fuzzParserMu sync.Mutex
	fuzzParser   = NewParser()
)

// FuzzParseLenient asserts the mining pipeline's hard requirement: no SQL
// input — however garbled — may panic the recovering parser
// (ParseWithDiagnostics) or return a nil script. Run with
// `go test -fuzz=FuzzParseLenient ./internal/sqlddl`.
func FuzzParseLenient(f *testing.F) {
	seeds := []string{
		"",
		"CREATE TABLE t (a INT);",
		"CREATE TABLE `weird``name` (a ENUM('x','y''z'), b INT UNSIGNED);",
		"ALTER TABLE t ADD COLUMN c TEXT, DROP PRIMARY KEY;",
		"INSERT INTO t VALUES ('a;b', \"c\");",
		"/* unterminated",
		"CREATE TABLE t (a int",
		"'unterminated string",
		"$tag$ body $tag$;",
		"SELECT 1; CREATE TABLE x (y int); DROP TABLE x;",
		"CREATE TABLE t (a TIMESTAMP WITH TIME ZONE DEFAULT now());",
		"RENAME TABLE a TO b, c TO d;",
		"\x00\x01\x02 CREATE TABLE t (a INT);",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, tc := range argForms {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		script, diags := ParseWithDiagnostics(src, Generic)
		if script == nil {
			t.Fatal("ParseWithDiagnostics returned nil script")
		}
		// Differential: the reusable parser — the same instance across all
		// fuzz iterations, slabs loaded with whatever earlier inputs left
		// behind — must reproduce the fresh parse exactly.
		fuzzParserMu.Lock()
		pooled, pooledDiags := fuzzParser.ParseWithDiagnostics(src, Generic)
		if pooled == nil {
			fuzzParserMu.Unlock()
			t.Fatal("reused Parser returned nil script")
		}
		if !reflect.DeepEqual(pooledDiags, diags) {
			fuzzParserMu.Unlock()
			t.Fatalf("reused Parser diagnostics diverged:\nfresh:  %+v\npooled: %+v", diags, pooledDiags)
		}
		if pooled.Stats != script.Stats {
			fuzzParserMu.Unlock()
			t.Fatalf("reused Parser stats %+v, fresh %+v", pooled.Stats, script.Stats)
		}
		if len(pooled.Statements) != len(script.Statements) {
			fuzzParserMu.Unlock()
			t.Fatalf("reused Parser yielded %d statements, fresh %d", len(pooled.Statements), len(script.Statements))
		}
		for i := range script.Statements {
			if !reflect.DeepEqual(script.Statements[i], pooled.Statements[i]) {
				fuzzParserMu.Unlock()
				t.Fatalf("reused Parser statement %d diverged:\nfresh:  %#v\npooled: %#v",
					i, script.Statements[i], pooled.Statements[i])
			}
		}
		fuzzParserMu.Unlock()
		// Dialect sweep: the recovering parser must survive every adapter
		// (quoting rules, GO separators, hash-comment gating) on arbitrary
		// input — never panicking, never dropping the script, always
		// accounting for every statement and categorizing every
		// diagnostic. Auto additionally exercises dialect detection.
		for _, d := range append(Dialects(), Auto) {
			dialectScript, diags := ParseWithDiagnostics(src, d)
			if dialectScript == nil {
				t.Fatalf("ParseWithDiagnostics(%s) returned nil script", d)
			}
			st := dialectScript.Stats
			if st.Attempted != st.Parsed+st.Recovered+st.Dropped {
				t.Fatalf("ParseWithDiagnostics(%s) stats don't add up: %+v", d, st)
			}
			if st.Parsed+st.Recovered < len(dialectScript.Statements) {
				t.Fatalf("ParseWithDiagnostics(%s) returned %d statements but accounted for %d",
					d, len(dialectScript.Statements), st.Parsed+st.Recovered)
			}
			for _, diag := range diags {
				if diag.Category == "" {
					t.Fatalf("ParseWithDiagnostics(%s) uncategorized diagnostic %+v", d, diag)
				}
				if diag.Line < 1 || diag.Col < 1 {
					t.Fatalf("ParseWithDiagnostics(%s) diagnostic without position: %+v", d, diag)
				}
			}
		}
		// Round-trip invariant: every statement carries its raw text, and
		// re-parsing that text alone reproduces a single statement of the
		// same kind. This is what lets cached results be keyed by
		// statement bytes: the text is a faithful, self-contained
		// representation of what was parsed.
		for i, stmt := range script.Statements {
			raw := stmt.Raw()
			if raw == "" {
				t.Fatalf("statement %d (%T) has empty raw text", i, stmt)
			}
			again, _ := ParseWithDiagnostics(raw, Generic)
			if again == nil {
				t.Fatalf("re-parse of statement %d returned nil script", i)
			}
			if len(again.Statements) != 1 {
				t.Fatalf("re-parse of statement %d (%T) yielded %d statements from %q",
					i, stmt, len(again.Statements), raw)
			}
			if got, want := fmt.Sprintf("%T", again.Statements[0]), fmt.Sprintf("%T", stmt); got != want {
				t.Fatalf("re-parse of statement %d changed kind: %s -> %s for %q", i, want, got, raw)
			}
		}
	})
}
