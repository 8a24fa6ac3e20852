package gitlog

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzParse asserts that arbitrary log text never panics the parser,
// that Parse agrees with the scanner-based parseReference on every input
// (the same entries, nil-versus-empty change lists included, and the
// same error text), and that whatever parses successfully survives an
// emit/parse round trip.
func FuzzParse(f *testing.F) {
	const header = "commit abc\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n"
	seeds := []string{
		"",
		"commit abc\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    msg\n",
		"commit abc\nMerge: a b\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    m\n",
		"commit abc\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    m\n\nM\tfile\nR100\told\tnew\n",
		"garbage before commit\n",
		"commit \n",
		"commit abc (HEAD -> main)\nAuthor: A <a@b.c>\nDate:   2020-01-01T00:00:00+02:00\n\n    m\n",
		// CRLF line ends.
		"commit abc\r\nAuthor: A <a@b.c>\r\nDate:   2020-01-01 00:00:00 +0000\r\n\r\n    m\r\n\r\nM\tfile\r\nR100\told\tnew\r\n",
		// A last line with no newline.
		header + "    m\n\nM\tfile\nA\tlast",
		// Blank and multi-line message lines.
		header + "    \n    first\n    \n    second\n    \n    \n\nD\tgone\n",
		header + "    \n    \n",
		// Two entries with changes, whose lists share one array.
		header + "    m\n\nM\ta\nD\tb\n\n" + header + "    n\n\nA\tc\n",
		// Extra tab fields.
		header + "    m\n\nM\tfile\textra\nR090\told\tnew\textra\n",
		// C and T statuses.
		header + "    m\n\nC075\tsrc\tcopy\nT\tlink\n",
		// A decorated commit line and a Merge: line.
		"commit def (tag: v1.0, origin/main)\nMerge: abc 123 456\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    Merge branch 'x'\n\n" + header + "    m\n\nA\tf\n",
		"commit abc\nMerge: \nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    m\n",
		// What Emit could not write back: a hash ending in '\r' and a
		// date whose UTC year leaves 0000-9999.
		"commit \r ",
		"commit a\nDate: 0000-01-01 00:00:00 +0100\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		entries, err := Parse(strings.NewReader(src))
		want, wantErr := parseReference(strings.NewReader(src))
		if errText(err) != errText(wantErr) {
			t.Fatalf("Parse error %q, reference %q", errText(err), errText(wantErr))
		}
		if !reflect.DeepEqual(entries, want) {
			t.Fatalf("Parse and reference disagree:\nParse:     %#v\nreference: %#v", entries, want)
		}
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		for i, e := range entries {
			// The lists share one array: an append must copy, not write
			// into the next entry's list.
			if cap(e.Changes) != len(e.Changes) {
				t.Fatalf("entry %d: change list of length %d has capacity %d", i, len(e.Changes), cap(e.Changes))
			}
		}
		var buf bytes.Buffer
		if err := Emit(&buf, entries); err != nil {
			t.Fatalf("Emit after successful Parse: %v", err)
		}
		if _, err := Parse(&buf); err != nil {
			t.Fatalf("re-Parse of emitted log failed: %v", err)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
