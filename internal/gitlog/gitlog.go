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

// Parse reads a complete `git log --name-status --date=iso` stream and
// returns its entries in the order they appear (git's default: newest
// first).
func Parse(r io.Reader) ([]Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)

	var (
		entries []Entry
		cur     *Entry
		msg     []string
		lineNo  int
	)
	flush := func() {
		if cur == nil {
			return
		}
		cur.Message = strings.TrimRight(strings.Join(msg, "\n"), "\n")
		entries = append(entries, *cur)
		cur = nil
		msg = nil
	}

	for sc.Scan() {
		lineNo++
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "commit "):
			flush()
			rest := strings.TrimPrefix(line, "commit ")
			// Decorations like "(HEAD -> main, tag: v1)" may follow.
			hash, _, _ := strings.Cut(rest, " ")
			if hash == "" {
				return nil, &ParseError{lineNo, "empty commit hash"}
			}
			cur = &Entry{Hash: hash}
		case cur == nil:
			if strings.TrimSpace(line) == "" {
				continue
			}
			return nil, &ParseError{lineNo, fmt.Sprintf("unexpected content before first commit: %q", line)}
		case strings.HasPrefix(line, "Merge: "):
			cur.MergeHashes = strings.Fields(strings.TrimPrefix(line, "Merge: "))
		case strings.HasPrefix(line, "Author: "):
			author := strings.TrimPrefix(line, "Author: ")
			name, email, ok := splitAuthor(author)
			if !ok {
				return nil, &ParseError{lineNo, fmt.Sprintf("malformed author: %q", author)}
			}
			cur.Author, cur.Email = name, email
		case strings.HasPrefix(line, "Date: "):
			raw := strings.TrimSpace(strings.TrimPrefix(line, "Date: "))
			ts, err := parseDate(raw)
			if err != nil {
				return nil, &ParseError{lineNo, fmt.Sprintf("malformed date %q: %v", raw, err)}
			}
			cur.Date = ts
		case strings.HasPrefix(line, "    "):
			msg = append(msg, strings.TrimPrefix(line, "    "))
		case line == "":
			// blank separator between header, message, and change list
		default:
			ch, err := parseChangeLine(line)
			if err != nil {
				return nil, &ParseError{lineNo, err.Error()}
			}
			cur.Changes = append(cur.Changes, ch)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gitlog: reading input: %w", err)
	}
	flush()
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
			return ts.UTC(), nil
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
func parseChangeLine(line string) (vcs.FileChange, error) {
	fields := strings.Split(line, "\t")
	if len(fields) < 2 {
		return vcs.FileChange{}, fmt.Errorf("malformed name-status line: %q", line)
	}
	status := fields[0]
	if status == "" {
		return vcs.FileChange{}, fmt.Errorf("empty status in line: %q", line)
	}
	switch status[0] {
	case 'A':
		return vcs.FileChange{Status: vcs.Added, Path: fields[1]}, nil
	case 'M':
		return vcs.FileChange{Status: vcs.Modified, Path: fields[1]}, nil
	case 'D':
		return vcs.FileChange{Status: vcs.Deleted, Path: fields[1]}, nil
	case 'R', 'C':
		if len(fields) < 3 {
			return vcs.FileChange{}, fmt.Errorf("rename/copy without destination: %q", line)
		}
		return vcs.FileChange{Status: vcs.Renamed, OldPath: fields[1], Path: fields[2]}, nil
	case 'T': // type change (e.g. file became symlink); treat as modification
		return vcs.FileChange{Status: vcs.Modified, Path: fields[1]}, nil
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
