package gitlog

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"coevo/internal/vcs"
)

// parseReference is the scanner-based parser Parse replaced, kept as
// the oracle that FuzzParse and the line-limit and read-error tests
// compare Parse against: one copied string per line, one split per
// name-status line, and entries, messages and change lists grown an
// append at a time. It is verbatim but for the one line both parsers
// gained with the rewrite, which cuts a trailing '\r' from a commit
// hash; the date check both gained lives in the parseDate they share.
func parseReference(r io.Reader) ([]Entry, error) {
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
			hash = strings.TrimRight(hash, "\r")
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
			ch, err := parseChangeLineReference(line)
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

// parseChangeLineReference is the strings.Split name-status parser
// parseReference calls, kept verbatim beside it.
func parseChangeLineReference(line string) (vcs.FileChange, error) {
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
