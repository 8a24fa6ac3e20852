package gitlog

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// TestParseLineLimit pins the 4 MiB line limit at its boundary against
// the scanner-based reference: a line that fills the limit with its
// newline parses, one byte more fails with the scanner's error, whether
// the line ends in "\n", "\r\n" or the end of the input. An error on an
// earlier line comes first; the limit comes before a later one.
func TestParseLineLimit(t *testing.T) {
	const head = "commit abc\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n"
	// line is a message line of width bytes before its newline.
	line := func(width int, crlf bool) string {
		if crlf {
			return "    " + strings.Repeat("x", width-5) + "\r"
		}
		return "    " + strings.Repeat("x", width-4)
	}
	cases := []struct {
		name string
		src  string
		ok   bool
	}{
		{"newline at the limit", head + line(maxLine-1, false) + "\n\nM\tf\n", true},
		{"newline past the limit", head + line(maxLine, false) + "\n\nM\tf\n", false},
		{"crlf at the limit", head + line(maxLine-1, true) + "\n\nM\tf\n", true},
		{"crlf past the limit", head + line(maxLine, true) + "\n\nM\tf\n", false},
		{"end of input at the limit", head + "M\tf\n" + line(maxLine-1, false), true},
		{"end of input past the limit", head + "M\tf\n" + line(maxLine, false), false},
		{"error before the long line", head + "Z\tf\n" + line(maxLine, false) + "\n", false},
		{"error after the long line", head + line(maxLine, false) + "\nZ\tf\n", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Parse(strings.NewReader(tc.src))
			want, wantErr := parseReference(strings.NewReader(tc.src))
			if errText(err) != errText(wantErr) {
				t.Fatalf("Parse error %q, reference %q", errText(err), errText(wantErr))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("Parse and reference disagree")
			}
			if tc.ok != (err == nil) {
				t.Fatalf("err = %v, want ok=%v", err, tc.ok)
			}
		})
	}
	_, err := Parse(strings.NewReader(cases[1].src))
	if !errors.Is(err, bufio.ErrTooLong) || err.Error() != "gitlog: reading input: bufio.Scanner: token too long" {
		t.Errorf("over-long line: err = %v", err)
	}
}

// TestParseReadError: a reader that fails mid-log fails the parse as
// the scanner did, after the lines that arrived: a malformed one among
// them is reported first, and an unterminated last one is a line.
func TestParseReadError(t *testing.T) {
	const head = "commit abc\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    m\n\n"
	boom := errors.New("boom")
	for _, src := range []string{head + "M\tf\n", head + "M\tf\nZ\tg\n", head + "M\tf\nZ\tg"} {
		r := func() io.Reader { return io.MultiReader(strings.NewReader(src), iotest.ErrReader(boom)) }
		got, err := Parse(r())
		want, wantErr := parseReference(r())
		if errText(err) != errText(wantErr) || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: Parse %v, reference %v", src, err, wantErr)
		}
		if err == nil {
			t.Errorf("%q: a failing reader parsed", src)
		}
	}
}

// TestParseRefusesWhatEmitCannotWrite: a commit hash that ends in '\r'
// (Emit's line would read back as a CRLF line end) or a date whose UTC
// year has more or fewer than four digits would parse into an entry
// whose emitted log does not parse again. Parse cuts the '\r' and
// refuses the date instead.
func TestParseRefusesWhatEmitCannotWrite(t *testing.T) {
	const tail = "Author: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    m\n"
	if _, err := Parse(strings.NewReader("commit \r \n" + tail)); err == nil || !strings.Contains(err.Error(), "empty commit hash") {
		t.Errorf(`hash "\r": err = %v, want empty commit hash`, err)
	}
	entries, err := Parse(strings.NewReader("commit abc\r\r (HEAD)\n" + tail))
	if err != nil || entries[0].Hash != "abc" {
		t.Fatalf(`hash "abc\r\r": %+v, %v`, entries, err)
	}
	var buf bytes.Buffer
	if err := Emit(&buf, entries); err != nil {
		t.Fatal(err)
	}
	if again, err := Parse(&buf); err != nil || !reflect.DeepEqual(again, entries) {
		t.Errorf("round trip: %+v, %v", again, err)
	}
	for _, date := range []string{"0000-01-01 00:00:00 +0100", "9999-12-31 23:30:00 -0100"} {
		src := "commit abc\nAuthor: A <a@b.c>\nDate:   " + date + "\n"
		var pe *ParseError
		if _, err := Parse(strings.NewReader(src)); !errors.As(err, &pe) || pe.Line != 3 {
			t.Errorf("date %s: err = %v, want a ParseError on line 3", date, err)
		}
	}
	for _, date := range []string{"0000-01-01 00:00:00 -0100", "9999-12-31 23:30:00 +0100"} {
		if _, err := Parse(strings.NewReader("commit abc\nAuthor: A <a@b.c>\nDate:   " + date + "\n")); err != nil {
			t.Errorf("date %s stays inside 0000-9999 in UTC: %v", date, err)
		}
	}
}
