package vcs

import "time"

// LogEntry pairs a commit with the file changes it introduced relative to
// its first parent, mirroring one record of `git log --name-status`.
type LogEntry struct {
	Commit  *Commit
	Changes []FileChange
}

// LogOptions selects and filters the history returned by Log.
type LogOptions struct {
	// NoMerges excludes commits with more than one parent, as the study's
	// `git log --no-merges` extraction does.
	NoMerges bool
	// Path, when non-empty, keeps only entries that touch the given path
	// (either as Path or as the OldPath of a rename), and the entries'
	// change lists are narrowed to that path.
	Path string
	// Since and Until bound the commit dates (inclusive) when non-zero.
	Since, Until time.Time
	// Reverse returns oldest-first order when true. The default is git's
	// newest-first order.
	Reverse bool
}

// Log returns the commit history of the repository with per-commit
// name-status change lists. Changes are computed against the first parent,
// which matches git's default log behaviour.
func (r *Repository) Log(opts LogOptions) []LogEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()

	entries := make([]LogEntry, 0, len(r.order))
	for _, c := range r.order {
		if opts.NoMerges && c.IsMerge() {
			continue
		}
		if !opts.Since.IsZero() && c.Author.When.Before(opts.Since) {
			continue
		}
		if !opts.Until.IsZero() && c.Author.When.After(opts.Until) {
			continue
		}
		changes := c.changes
		if opts.Path != "" {
			changes = filterPath(changes, opts.Path)
			if len(changes) == 0 {
				continue
			}
		}
		entries = append(entries, LogEntry{Commit: c, Changes: changes})
	}
	if !opts.Reverse {
		for i, j := 0, len(entries)-1; i < j; i, j = i+1, j-1 {
			entries[i], entries[j] = entries[j], entries[i]
		}
	}
	return entries
}

// Changes returns the name-status change list for a single commit. The
// slice is shared and must not be modified.
func (r *Repository) Changes(h Hash) ([]FileChange, error) {
	c, err := r.CommitByHash(h)
	if err != nil {
		return nil, err
	}
	return c.changes, nil
}

func filterPath(changes []FileChange, path string) []FileChange {
	var out []FileChange
	for _, ch := range changes {
		if ch.Path == path || ch.OldPath == path {
			out = append(out, ch)
		}
	}
	return out
}

// FileVersion is one historical state of a tracked file.
type FileVersion struct {
	Commit  *Commit
	Content []byte
	// Deleted marks a version where the file was removed; Content is nil.
	Deleted bool
}

// FileVersions returns every version of path in commit order (oldest
// first), including a terminal Deleted version if the file was removed.
// Explicit renames follow the file across its old and new names.
func (r *Repository) FileVersions(path string) []FileVersion {
	entries := r.Log(LogOptions{Reverse: true})
	var versions []FileVersion
	current := path
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range entries {
		for _, ch := range e.Changes {
			switch {
			case ch.Status == Renamed && ch.OldPath == current:
				current = ch.Path
				versions = append(versions, FileVersion{Commit: e.Commit, Content: r.blobs[ch.blob]})
			case ch.Path == current && ch.Status == Deleted:
				versions = append(versions, FileVersion{Commit: e.Commit, Deleted: true})
			case ch.Path == current:
				versions = append(versions, FileVersion{Commit: e.Commit, Content: r.blobs[ch.blob]})
			}
		}
	}
	return versions
}

// FirstCommit returns the oldest commit, or nil for an empty repository.
func (r *Repository) FirstCommit() *Commit {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.order) == 0 {
		return nil
	}
	return r.order[0]
}

// LastCommit returns the newest commit, or nil for an empty repository.
func (r *Repository) LastCommit() *Commit {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.order) == 0 {
		return nil
	}
	return r.order[len(r.order)-1]
}
