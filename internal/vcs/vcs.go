// Package vcs implements a minimal, git-like version control substrate.
//
// The package reproduces exactly the git semantics that the schema/source
// co-evolution study relies on: content-addressed file snapshots, a commit
// DAG with authored dates and messages, per-commit changed-file lists
// (equivalent to `git log --name-status`), merge commits that can be
// excluded from activity counting (`--no-merges`), and retrieval of every
// historical version of a file (the DDL file of a project).
//
// The store is entirely in memory; repositories are cheap enough that a
// corpus of hundreds of synthetic projects can be materialized and analyzed
// within a test run.
package vcs

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Hash identifies a commit or blob by its SHA-256 digest. The zero Hash
// names no object: an unborn branch head or a deleted file's blob.
type Hash [sha256.Size]byte

// String returns the hex form of the hash, git's full object name.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Short returns the abbreviated (12 character) hex form of the hash,
// mirroring git's abbreviated object names.
func (h Hash) Short() string { return hex.EncodeToString(h[:6]) }

// Signature names an author or committer at a point in time. Times are
// normalized to UTC: the study's time quantum is the calendar month and a
// single timezone keeps month bucketing unambiguous.
type Signature struct {
	Name  string
	Email string
	When  time.Time
}

// normalize returns a copy of the signature with its time in UTC.
func (s Signature) normalize() Signature {
	s.When = s.When.UTC()
	return s
}

// ChangeStatus classifies how a commit touched a file, mirroring the status
// letters of `git log --name-status`.
type ChangeStatus byte

// The supported change statuses.
const (
	Added    ChangeStatus = 'A'
	Modified ChangeStatus = 'M'
	Deleted  ChangeStatus = 'D'
	Renamed  ChangeStatus = 'R'
)

// String returns the git status letter.
func (s ChangeStatus) String() string { return string(byte(s)) }

// FileChange records one file-level change introduced by a commit relative
// to its first parent.
type FileChange struct {
	Status  ChangeStatus
	Path    string
	OldPath string // set only for Renamed

	// blob is the content hash of Path after the change (zero for
	// Deleted), letting FileVersions read historical content without
	// materializing per-commit tree snapshots.
	blob Hash
}

// apply applies the change to a path→blob snapshot.
func (ch *FileChange) apply(tree map[string]Hash) {
	switch ch.Status {
	case Deleted:
		delete(tree, ch.Path)
	case Renamed:
		delete(tree, ch.OldPath)
		tree[ch.Path] = ch.blob
	default:
		tree[ch.Path] = ch.blob
	}
}

// Commit is an immutable node of the history DAG. Its name-status list
// against the first parent is its only snapshot delta; the full
// path→blob map is materialized on demand by Tree.
type Commit struct {
	Hash    Hash
	Parents []Hash
	Author  Signature
	Message string

	// parent is the first parent (nil for a root commit), and parentBuf
	// backs Parents for the single-parent common case.
	parent    *Commit
	parentBuf [1]Hash

	// changes is the name-status list against the first parent, sorted by
	// Path and computed once at commit time; Log, FileVersions, Changes
	// and Tree all read it.
	changes []FileChange

	// tree memoizes the materialized snapshot.
	treeOnce sync.Once
	tree     map[string]Hash
}

// Tree returns the commit's full path→blob snapshot, materialized from
// the first-parent delta chain on first use and memoized. The map must
// not be mutated.
func (c *Commit) Tree() map[string]Hash {
	c.treeOnce.Do(func() {
		var chain []*Commit
		for cur := c; cur != nil; cur = cur.parent {
			chain = append(chain, cur)
		}
		t := make(map[string]Hash)
		for i := len(chain) - 1; i >= 0; i-- {
			for j := range chain[i].changes {
				chain[i].changes[j].apply(t)
			}
		}
		c.tree = t
	})
	return c.tree
}

// IsMerge reports whether the commit has more than one parent.
func (c *Commit) IsMerge() bool { return len(c.Parents) > 1 }

// When returns the authored time of the commit.
func (c *Commit) When() time.Time { return c.Author.When }

// Errors returned by Repository operations.
var (
	ErrEmptyCommit  = errors.New("vcs: nothing staged to commit")
	ErrNoSuchCommit = errors.New("vcs: no such commit")
	ErrNoSuchFile   = errors.New("vcs: no such file")
	ErrNoSuchBranch = errors.New("vcs: no such branch")
	ErrBranchExists = errors.New("vcs: branch already exists")
	ErrNonMonotonic = errors.New("vcs: commit date precedes parent commit date")
)

// Repository is an in-memory git-like repository. The zero value is not
// usable; construct with NewRepository. All methods are safe for concurrent
// use.
type Repository struct {
	mu       sync.RWMutex
	name     string
	blobs    map[Hash][]byte
	commits  map[Hash]*Commit
	order    []*Commit // creation order (used as the log order)
	branches map[string]Hash
	// workTrees holds the mutable current snapshot of each branch, so
	// committing applies the staged delta in place instead of copying the
	// whole parent tree into every commit.
	workTrees map[string]map[string]Hash
	current   string
	staged    map[string]*stagedChange
	// hashBuf is header scratch reused across commits while the write
	// lock is held, keeping hashing allocation-free.
	hashBuf []byte
	// The blob-line memo: the "blob <hash> <path>\n" region of the hash
	// pre-image for the tree of commit hashHead, with sortedPaths the
	// tree's paths in hash order and blobOff[i] the byte offset of path
	// i's hex hash inside blobLines. A child commit that does not add or
	// remove paths — the overwhelmingly common case — patches only its
	// modified paths' hashes in place instead of re-collecting, re-sorting
	// and re-rendering the whole tree.
	hashHead    Hash
	sortedPaths []string
	blobLines   []byte
	blobOff     []int
	// arena is the current chunk stored blobs are carved from.
	arena []byte
	// commitSlab and changeSlab are the current chunks Commit records and
	// name-status lists are carved from; see carveCommitLocked.
	commitSlab []Commit
	changeSlab []FileChange
	// freeStaged recycles stagedChange records, copy buffers included,
	// across commits, and digest is the commit hasher reused under the
	// write lock.
	freeStaged []*stagedChange
	digest     hash.Hash
}

// blobChunk is the size of the arena chunks blobs are stored in. A blob
// larger than a quarter chunk gets an allocation of its own, so a chunk
// abandons less than a quarter of itself when the next blob does not fit.
const blobChunk = 32 << 10

// commitChunk and changeChunk are the capacities of the slab chunks
// Commit records and name-status lists are carved from. The unused tail
// of a repository's newest chunks is all the slabs retain beyond what its
// commits need, so the chunks stay small: a few KiB, against one
// allocation per dozens of commits.
const (
	commitChunk = 32
	changeChunk = 64
)

type stagedChange struct {
	content []byte // the staged bytes; unused for a deletion
	delete  bool
	renamed string // old path if this stage is the destination of a rename
	// buf is the record's copy buffer, kept when the record is recycled.
	// Stage copies into it; putBlobLocked copies new content out of it.
	buf []byte
}

// NewRepository creates an empty repository with a single branch named
// "main". The name is informational (it plays the role of the GitHub
// "owner/project" slug in the study).
func NewRepository(name string) *Repository {
	return &Repository{
		name:      name,
		blobs:     make(map[Hash][]byte),
		commits:   make(map[Hash]*Commit),
		branches:  map[string]Hash{"main": {}},
		workTrees: map[string]map[string]Hash{"main": {}},
		current:   "main",
		staged:    make(map[string]*stagedChange),
	}
}

// carveCommitLocked returns a zeroed Commit carved from the commit slab.
func (r *Repository) carveCommitLocked() *Commit {
	if len(r.commitSlab) == cap(r.commitSlab) {
		r.commitSlab = make([]Commit, 0, commitChunk)
	}
	r.commitSlab = r.commitSlab[:len(r.commitSlab)+1]
	return &r.commitSlab[len(r.commitSlab)-1]
}

// changeRoomLocked returns an empty slice of the change slab with room for
// n entries, so up to n appends write into the slab in place;
// keepChangesLocked then claims what was appended.
func (r *Repository) changeRoomLocked(n int) []FileChange {
	if cap(r.changeSlab)-len(r.changeSlab) < n {
		r.changeSlab = make([]FileChange, 0, max(changeChunk, n))
	}
	return r.changeSlab[len(r.changeSlab):]
}

// keepChangesLocked claims changes, appended into the room
// changeRoomLocked returned, from the slab, capped at their length so an
// append to one commit's list can never overwrite the next.
func (r *Repository) keepChangesLocked(changes []FileChange) []FileChange {
	r.changeSlab = r.changeSlab[:len(r.changeSlab)+len(changes)]
	return changes[:len(changes):len(changes)]
}

// stageLocked returns the cleared staging record for path: the one
// already staged there, else a recycled or new one.
func (r *Repository) stageLocked(path string) *stagedChange {
	st, ok := r.staged[path]
	if !ok {
		if n := len(r.freeStaged); n > 0 {
			st = r.freeStaged[n-1]
			r.freeStaged = r.freeStaged[:n-1]
		} else {
			st = &stagedChange{}
		}
		r.staged[path] = st
	}
	st.content, st.delete, st.renamed = nil, false, ""
	return st
}

// resetStagedLocked empties the staging area, returning its records to the
// free list. The map itself is kept and cleared in place.
func (r *Repository) resetStagedLocked() {
	for _, st := range r.staged {
		r.freeStaged = append(r.freeStaged, st)
	}
	clear(r.staged)
}

// Name returns the repository's slug.
func (r *Repository) Name() string { return r.name }

// Stage schedules path to contain content in the next commit. The bytes
// are copied, so the caller may reuse content as soon as Stage returns.
func (r *Repository) Stage(path string, content []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stageLocked(path)
	st.buf = append(st.buf[:0], content...)
	st.content = st.buf
}

// StageString is Stage for text content.
func (r *Repository) StageString(path, content string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stageLocked(path)
	st.buf = append(st.buf[:0], content...)
	st.content = st.buf
}

// Remove schedules path for deletion in the next commit.
func (r *Repository) Remove(path string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stageLocked(path).delete = true
}

// Move schedules a rename of oldPath to newPath, keeping the current
// content. It returns ErrNoSuchFile if oldPath does not exist at HEAD.
func (r *Repository) Move(oldPath, newPath string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	blob, ok := r.workTrees[r.current][oldPath]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchFile, oldPath)
	}
	r.stageLocked(oldPath).delete = true
	st := r.stageLocked(newPath)
	st.content, st.renamed = r.blobs[blob], oldPath
	return nil
}

// Head returns the commit the current branch points at, or nil if the
// branch has no commits yet.
func (r *Repository) Head() *Commit {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.commits[r.branches[r.current]]
}

// Branch returns the name of the current branch.
func (r *Repository) Branch() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.current
}

// CreateBranch creates a new branch at the current head and returns an
// error if it already exists.
func (r *Repository) CreateBranch(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.branches[name]; ok {
		return fmt.Errorf("%w: %s", ErrBranchExists, name)
	}
	r.branches[name] = r.branches[r.current]
	cur := r.workTrees[r.current]
	wt := make(map[string]Hash, len(cur))
	for p, b := range cur {
		wt[p] = b
	}
	r.workTrees[name] = wt
	return nil
}

// Checkout switches the current branch. Staged changes are discarded, as
// the substrate has no need for stash semantics.
func (r *Repository) Checkout(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.branches[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchBranch, name)
	}
	r.current = name
	r.resetStagedLocked()
	return nil
}

// Commit records the staged changes as a new commit on the current branch.
// Commit dates must be monotonically non-decreasing along the first-parent
// chain; the study depends on ordered histories.
func (r *Repository) Commit(message string, author Signature) (*Commit, error) {
	return r.commit(message, author)
}

// CommitMerge records the staged changes as a merge commit whose second
// parent is other. Merge commits are what `--no-merges` excludes in the
// project-activity extraction.
func (r *Repository) CommitMerge(message string, author Signature, other Hash) (*Commit, error) {
	return r.commit(message, author, other)
}

func (r *Repository) commit(message string, author Signature, extraParents ...Hash) (*Commit, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	author = author.normalize()
	head := r.branches[r.current]
	parent := r.commits[head]
	if parent != nil && author.When.Before(parent.Author.When) {
		return nil, fmt.Errorf("%w: %s < %s", ErrNonMonotonic,
			author.When.Format(time.RFC3339), parent.Author.When.Format(time.RFC3339))
	}
	for _, p := range extraParents {
		if _, ok := r.commits[p]; !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchCommit, p.Short())
		}
	}
	if len(r.staged) == 0 && len(extraParents) == 0 {
		return nil, ErrEmptyCommit
	}

	// The whole staged delta is evaluated against the branch work tree
	// BEFORE it is mutated: blob hashes, added/removed path detection and
	// the name-status list all derive from (pre-state, staged) alone — the
	// post-state is exactly pre-state plus the name-status list, so no
	// full tree scan or copy is needed anywhere.
	wt := r.workTrees[r.current]
	// has reports whether path exists in the post-commit snapshot.
	has := func(path string) bool {
		if st, ok := r.staged[path]; ok {
			return !st.delete
		}
		_, ok := wt[path]
		return ok
	}

	// Every staged path yields at most one change, so the list never
	// outgrows its room in the change slab.
	keysChanged := false
	changes := r.changeRoomLocked(len(r.staged))
	var renamedFrom map[string]bool
	for path, st := range r.staged {
		if st.renamed == "" {
			continue
		}
		// An explicit rename is reported as a single R entry when the old
		// path disappeared and the new path exists.
		if _, hadOld := wt[st.renamed]; !hadOld || !has(path) || has(st.renamed) {
			continue
		}
		if renamedFrom == nil {
			renamedFrom = make(map[string]bool)
		}
		changes = append(changes, FileChange{Status: Renamed, Path: path, OldPath: st.renamed, blob: r.putBlobLocked(st.content)})
		renamedFrom[st.renamed] = true
		renamedFrom[path] = true
	}
	for path, st := range r.staged {
		if renamedFrom[path] {
			keysChanged = true // a rename removes its old path
			continue
		}
		old, had := wt[path]
		if st.delete {
			if had {
				keysChanged = true
				changes = append(changes, FileChange{Status: Deleted, Path: path})
			}
			continue
		}
		blob := r.putBlobLocked(st.content)
		switch {
		case !had:
			keysChanged = true
			changes = append(changes, FileChange{Status: Added, Path: path, blob: blob})
		case old != blob:
			changes = append(changes, FileChange{Status: Modified, Path: path, blob: blob})
		}
	}
	// Change lists are a handful of entries; an insertion sort by the
	// unique Path avoids sort.Slice's reflection-based swapper.
	for i := 1; i < len(changes); i++ {
		for j := i; j > 0 && changes[j].Path < changes[j-1].Path; j-- {
			changes[j], changes[j-1] = changes[j-1], changes[j]
		}
	}
	// Apply the delta to the branch work tree (the post-commit snapshot).
	for i := range changes {
		changes[i].apply(wt)
	}

	c := r.carveCommitLocked()
	c.Author, c.Message, c.parent, c.changes = author, message, parent, r.keepChangesLocked(changes)
	parents := c.parentBuf[:0]
	if parent != nil {
		parents = append(parents, head)
	}
	if parents = append(parents, extraParents...); len(parents) > 0 {
		c.Parents = parents
	}
	c.Hash = r.hashCommitLocked(c, keysChanged, wt)
	r.hashHead = c.Hash
	r.commits[c.Hash] = c
	r.order = append(r.order, c)
	r.branches[r.current] = c.Hash
	r.resetStagedLocked()
	return c, nil
}

// putBlobLocked stores content in the blob store, unless the store already
// holds it, and returns its hash. New content is copied into the arena, or
// above a quarter chunk into an allocation of its own, as a slice whose
// capacity is its length: appending to a stored blob can never overwrite
// its neighbour.
func (r *Repository) putBlobLocked(content []byte) Hash {
	h := Hash(sha256.Sum256(content))
	if _, ok := r.blobs[h]; ok {
		return h
	}
	n := len(content)
	if n > blobChunk/4 {
		r.blobs[h] = append(make([]byte, 0, n), content...)
		return h
	}
	if r.arena == nil || len(r.arena)+n > cap(r.arena) {
		r.arena = make([]byte, 0, blobChunk)
	}
	start := len(r.arena)
	r.arena = append(r.arena, content...)
	r.blobs[h] = r.arena[start:len(r.arena):len(r.arena)]
	return h
}

// hashCommitLocked derives a commit hash from the commit's content plus
// its creation sequence number (which keeps hashes unique even for
// identical content committed twice). The pre-image layout is frozen —
// TestCommitHashesFrozen pins the generated corpus's hashes — so this
// builds exactly the bytes the original fmt-based writer produced, every
// hash in hex. When the parent's blob-line memo is current and no path was
// added or removed, only the modified paths' hashes are patched in place
// (every blob hash is the same fixed-width hex, so offsets are stable).
func (r *Repository) hashCommitLocked(c *Commit, keysChanged bool, tree map[string]Hash) Hash {
	b := r.hashBuf[:0]
	b = append(b, "seq "...)
	b = strconv.AppendInt(b, int64(len(r.order)), 10)
	b = append(b, '\n')
	for _, p := range c.Parents {
		b = append(b, "parent "...)
		b = hex.AppendEncode(b, p[:])
		b = append(b, '\n')
	}
	b = append(b, "author "...)
	b = append(b, c.Author.Name...)
	b = append(b, " <"...)
	b = append(b, c.Author.Email...)
	b = append(b, "> "...)
	b = strconv.AppendInt(b, c.Author.When.UnixNano(), 10)
	b = append(b, '\n')
	b = append(b, "message "...)
	b = append(b, c.Message...)
	b = append(b, '\n')

	if c.parent != nil && c.parent.Hash == r.hashHead && !keysChanged {
		for i := range c.changes {
			j := sort.SearchStrings(r.sortedPaths, c.changes[i].Path)
			hex.Encode(r.blobLines[r.blobOff[j]:], c.changes[i].blob[:])
		}
	} else {
		r.rebuildBlobLinesLocked(tree)
	}

	if r.digest == nil {
		r.digest = sha256.New()
	} else {
		r.digest.Reset()
	}
	r.digest.Write(b)
	r.digest.Write(r.blobLines)
	r.hashBuf = r.digest.Sum(b[:0])
	return Hash(r.hashBuf)
}

// rebuildBlobLinesLocked re-renders the blob-line memo for tree from
// scratch — the slow path, taken only when the path set changed or the
// memo belongs to a different head (branch switch, foreign parent).
func (r *Repository) rebuildBlobLinesLocked(tree map[string]Hash) {
	paths := r.sortedPaths[:0]
	for p := range tree {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	b := r.blobLines[:0]
	off := r.blobOff[:0]
	for _, p := range paths {
		blob := tree[p]
		b = append(b, "blob "...)
		off = append(off, len(b))
		b = hex.AppendEncode(b, blob[:])
		b = append(b, ' ')
		b = append(b, p...)
		b = append(b, '\n')
	}
	r.sortedPaths, r.blobLines, r.blobOff = paths, b, off
}

// CommitByHash resolves a commit by its full hash.
func (r *Repository) CommitByHash(h Hash) (*Commit, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if c, ok := r.commits[h]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoSuchCommit, h.Short())
}

// FileAt returns the content of path at the given commit.
func (r *Repository) FileAt(h Hash, path string) ([]byte, error) {
	c, err := r.CommitByHash(h)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	blob, ok := c.Tree()[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s at %s", ErrNoSuchFile, path, h.Short())
	}
	content := r.blobs[blob]
	buf := make([]byte, len(content))
	copy(buf, content)
	return buf, nil
}

// ChangedContent returns the content a change introduced (the post-change
// blob recorded at commit time). ok is false for Deleted changes or
// changes not produced by this repository's log. The returned slice is
// the repository's internal buffer and must not be modified; its capacity
// is its length, so appending to it copies.
func (r *Repository) ChangedContent(ch FileChange) ([]byte, bool) {
	if ch.blob == (Hash{}) {
		return nil, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	b, ok := r.blobs[ch.blob]
	return b, ok
}

// Commits returns all commits in creation order (oldest first). The slice
// is a copy and safe to retain.
func (r *Repository) Commits() []*Commit {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*Commit(nil), r.order...)
}

// CommitCount returns the number of commits in the repository.
func (r *Repository) CommitCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.order)
}
