// Package gitlog parses and emits the textual output of
//
//	git log --name-status --no-merges --date=iso
//
// which is the exact extraction command the study uses to measure project
// activity ("the names of the changed files, the date, and some extra
// information on the authors and their messages"). The parser accepts real
// git output so histories of genuinely cloned repositories can be ingested;
// the emitter renders histories of the in-memory vcs substrate in the same
// format, and the two round-trip.
package gitlog

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"coevo/internal/vcs"
)

// Entry is one commit record of a parsed log.
type Entry struct {
	Hash        string
	MergeHashes []string // abbreviated parent hashes from a "Merge:" line
	Author      string
	Email       string
	Date        time.Time
	Message     string // full message with inter-line newlines preserved
	Changes     []vcs.FileChange
}

// IsMerge reports whether the entry carries a Merge: line.
func (e *Entry) IsMerge() bool { return len(e.MergeHashes) > 0 }

// dateLayouts are the formats git emits under --date=iso (ISO 8601-like)
// plus the strict variant, in the order we attempt them.
var dateLayouts = []string{
	"2006-01-02 15:04:05 -0700",
	"2006-01-02T15:04:05-07:00",
	time.RFC3339,
}

// ParseError reports a malformed log with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("gitlog: line %d: %s", e.Line, e.Msg) }

// maxLine bounds a line of the log, its newline included: the buffer
// limit of the bufio.Scanner this parser once read through. A longer
// line still fails with that scanner's error.
const maxLine = 4 * 1024 * 1024

// Parse reads a complete `git log --name-status --date=iso` stream and
// returns its entries in the order they appear (git's default: newest
// first).
//
// The log is read once into one string and walked line by line. Every
// Hash, Author, Email, path and single-line Message is a substring of
// that string, and the entries and all of their change lists are carved
// from two slices sized by a counting pass, each list capped at its
// length (nil when the entry has none). A held Entry therefore keeps
// the whole log text and both slices alive.
func Parse(r io.Reader) ([]Entry, error) {
	text, readErr := readAll(r)
	entries, err := parseText(text)
	if err != nil {
		return nil, err
	}
	if readErr != nil {
		// Like a scanner, parse what arrived before reporting the failure.
		return nil, fmt.Errorf("gitlog: reading input: %w", readErr)
	}
	return entries, nil
}

// readAll copies r into one string. A reader that writes itself out
// in one call, as strings, bytes and buffer readers do through
// io.WriterTo, costs one allocation.
func readAll(r io.Reader) (string, error) {
	var b strings.Builder
	_, err := io.Copy(&b, r)
	return b.String(), err
}

// nextLine returns the line of text that starts at pos, as
// bufio.ScanLines cuts it (no newline, one trailing '\r' dropped), its
// width before the drop, and the offset of the line after it.
func nextLine(text string, pos int) (line string, width, next int) {
	end := strings.IndexByte(text[pos:], '\n')
	if end < 0 {
		end, next = len(text), len(text)
	} else {
		end += pos
		next = end + 1
	}
	line = text[pos:end]
	width = len(line)
	if width > 0 && line[width-1] == '\r' {
		line = line[:width-1]
	}
	return line, width, next
}

// isChangeLine reports whether a line inside an entry is a name-status
// line: anything but a header, an indented message line or a blank.
func isChangeLine(line string) bool {
	return line != "" &&
		!strings.HasPrefix(line, "Merge: ") &&
		!strings.HasPrefix(line, "Author: ") &&
		!strings.HasPrefix(line, "Date: ") &&
		!strings.HasPrefix(line, "    ")
}

// parseText parses a whole log held in one string.
func parseText(text string) ([]Entry, error) {
	// Counting pass: one entry per commit line and one change per
	// name-status line after the first commit line, so the walk below
	// never grows either slice.
	var nEntries, nChanges int
	for pos := 0; pos < len(text); {
		line, _, next := nextLine(text, pos)
		pos = next
		if strings.HasPrefix(line, "commit ") {
			nEntries++
		} else if nEntries > 0 && isChangeLine(line) {
			nChanges++
		}
	}

	var (
		entries []Entry // nil when the log has no entry, as before
		changes = make([]vcs.FileChange, 0, nChanges)
		cur     *Entry
		first   int      // index in changes of cur's first change
		msg     []string // cur's message lines, reused across entries
		lineNo  int
	)
	if nEntries > 0 {
		entries = make([]Entry, 0, nEntries)
	}
	finish := func() {
		if cur == nil {
			return
		}
		// Trailing blank lines are dropped; Join returns a lone line
		// itself and joins more into one string of exact size.
		for len(msg) > 0 && msg[len(msg)-1] == "" {
			msg = msg[:len(msg)-1]
		}
		cur.Message = strings.Join(msg, "\n")
		if n := len(changes); n > first {
			cur.Changes = changes[first:n:n]
		}
	}
	for pos := 0; pos < len(text); {
		lineNo++
		line, width, next := nextLine(text, pos)
		if width >= maxLine {
			return nil, fmt.Errorf("gitlog: reading input: %w", bufio.ErrTooLong)
		}
		switch {
		case strings.HasPrefix(line, "commit "):
			finish()
			// Decorations like "(HEAD -> main, tag: v1)" may follow. A
			// '\r' ending the hash would read back as a CRLF line end.
			hash, _, _ := strings.Cut(line[len("commit "):], " ")
			hash = strings.TrimRight(hash, "\r")
			if hash == "" {
				return nil, &ParseError{lineNo, "empty commit hash"}
			}
			entries = append(entries, Entry{Hash: hash})
			cur, first, msg = &entries[len(entries)-1], len(changes), msg[:0]
		case cur == nil:
			if strings.TrimSpace(line) != "" {
				return nil, &ParseError{lineNo, fmt.Sprintf("unexpected content before first commit: %q", line)}
			}
		case strings.HasPrefix(line, "Merge: "):
			cur.MergeHashes = strings.Fields(line[len("Merge: "):])
		case strings.HasPrefix(line, "Author: "):
			author := line[len("Author: "):]
			name, email, ok := splitAuthor(author)
			if !ok {
				return nil, &ParseError{lineNo, fmt.Sprintf("malformed author: %q", author)}
			}
			cur.Author, cur.Email = name, email
		case strings.HasPrefix(line, "Date: "):
			raw := strings.TrimSpace(line[len("Date: "):])
			ts, err := parseDate(raw)
			if err != nil {
				return nil, &ParseError{lineNo, fmt.Sprintf("malformed date %q: %v", raw, err)}
			}
			cur.Date = ts
		case strings.HasPrefix(line, "    "):
			msg = append(msg, line[len("    "):])
		case line == "":
			// blank separator between header, message, and change list
		default:
			ch, err := parseChangeLine(line)
			if err != nil {
				return nil, &ParseError{lineNo, err.Error()}
			}
			changes = append(changes, ch)
		}
		pos = next
	}
	finish()
	return entries, nil
}

// splitAuthor splits "Name <email>" into its parts.
func splitAuthor(s string) (name, email string, ok bool) {
	open := strings.LastIndex(s, "<")
	close := strings.LastIndex(s, ">")
	if open < 0 || close < open {
		return "", "", false
	}
	return strings.TrimSpace(s[:open]), s[open+1 : close], true
}

func parseDate(raw string) (time.Time, error) {
	var firstErr error
	for _, layout := range dateLayouts {
		ts, err := time.Parse(layout, raw)
		if err == nil {
			// Emit writes a UTC date with a four-digit year, so a date
			// whose UTC year has more or fewer could not be read back.
			ts = ts.UTC()
			if y := ts.Year(); y < 0 || y > 9999 {
				return time.Time{}, fmt.Errorf("UTC year %d is outside 0000-9999", y)
			}
			return ts, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return time.Time{}, firstErr
}

// parseChangeLine parses one name-status line such as
//
//	M\tpath/to/file
//	R100\told\tnew
//
// cutting at tabs; fields past the ones a status reads are ignored.
func parseChangeLine(line string) (vcs.FileChange, error) {
	status, rest, ok := strings.Cut(line, "\t")
	if !ok {
		return vcs.FileChange{}, fmt.Errorf("malformed name-status line: %q", line)
	}
	if status == "" {
		return vcs.FileChange{}, fmt.Errorf("empty status in line: %q", line)
	}
	path, rest, more := strings.Cut(rest, "\t")
	switch status[0] {
	case 'A':
		return vcs.FileChange{Status: vcs.Added, Path: path}, nil
	case 'M':
		return vcs.FileChange{Status: vcs.Modified, Path: path}, nil
	case 'D':
		return vcs.FileChange{Status: vcs.Deleted, Path: path}, nil
	case 'R', 'C':
		if !more {
			return vcs.FileChange{}, fmt.Errorf("rename/copy without destination: %q", line)
		}
		dest, _, _ := strings.Cut(rest, "\t")
		return vcs.FileChange{Status: vcs.Renamed, OldPath: path, Path: dest}, nil
	case 'T': // type change (e.g. file became symlink); treat as modification
		return vcs.FileChange{Status: vcs.Modified, Path: path}, nil
	default:
		return vcs.FileChange{}, fmt.Errorf("unknown status %q in line: %q", status, line)
	}
}

// Emit writes entries in git's --name-status --date=iso format.
func Emit(w io.Writer, entries []Entry) error {
	bw := bufio.NewWriter(w)
	for i, e := range entries {
		if i > 0 {
			fmt.Fprintln(bw)
		}
		fmt.Fprintf(bw, "commit %s\n", e.Hash)
		if len(e.MergeHashes) > 0 {
			fmt.Fprintf(bw, "Merge: %s\n", strings.Join(e.MergeHashes, " "))
		}
		fmt.Fprintf(bw, "Author: %s <%s>\n", e.Author, e.Email)
		fmt.Fprintf(bw, "Date:   %s\n", e.Date.UTC().Format("2006-01-02 15:04:05 -0700"))
		fmt.Fprintln(bw)
		for _, line := range strings.Split(e.Message, "\n") {
			fmt.Fprintf(bw, "    %s\n", line)
		}
		if len(e.Changes) > 0 {
			fmt.Fprintln(bw)
			for _, ch := range e.Changes {
				switch ch.Status {
				case vcs.Renamed:
					fmt.Fprintf(bw, "R100\t%s\t%s\n", ch.OldPath, ch.Path)
				default:
					fmt.Fprintf(bw, "%s\t%s\n", ch.Status, ch.Path)
				}
			}
		}
	}
	return bw.Flush()
}

// FromRepository renders the history of a vcs repository as log entries in
// git order (newest first), honoring the study's --no-merges convention
// when noMerges is set.
func FromRepository(repo *vcs.Repository, noMerges bool) []Entry {
	log := repo.Log(vcs.LogOptions{NoMerges: noMerges})
	entries := make([]Entry, 0, len(log))
	for _, le := range log {
		// Rebuild the change records from their text-format fields only, so
		// a derived log round-trips through Emit/Parse exactly (the vcs
		// originals carry internal state the format does not persist).
		changes := make([]vcs.FileChange, len(le.Changes))
		for i, ch := range le.Changes {
			changes[i] = vcs.FileChange{Status: ch.Status, Path: ch.Path, OldPath: ch.OldPath}
		}
		e := Entry{
			Hash:    le.Commit.Hash.String(),
			Author:  le.Commit.Author.Name,
			Email:   le.Commit.Author.Email,
			Date:    le.Commit.Author.When,
			Message: le.Commit.Message,
			Changes: changes,
		}
		if le.Commit.IsMerge() {
			for _, p := range le.Commit.Parents {
				e.MergeHashes = append(e.MergeHashes, p.Short())
			}
		}
		entries = append(entries, e)
	}
	return entries
}

// MonthlyFileUpdates aggregates a parsed log into the number of updated
// files per calendar month, the raw material of the Project Heartbeat.
// Merge entries are skipped, matching --no-merges. The result maps
// "YYYY-MM" keys to counts; use sorted keys for a stable series.
func MonthlyFileUpdates(entries []Entry) map[string]int {
	counts := make(map[string]int)
	for _, e := range entries {
		if e.IsMerge() {
			continue
		}
		counts[e.Date.UTC().Format("2006-01")] += len(e.Changes)
	}
	return counts
}

// SortedMonths returns the keys of a MonthlyFileUpdates result in
// chronological order.
func SortedMonths(counts map[string]int) []string {
	months := make([]string, 0, len(counts))
	for m := range counts {
		months = append(months, m)
	}
	sort.Strings(months)
	return months
}
