// Package history extracts the two raw histories the study compares for
// every project: the schema history (every version of the project's DDL
// file, parsed and diffed) and the project history (the number of files
// updated in every non-merge commit, as reported by
// `git log --name-status --no-merges --date=iso`).
package history

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"coevo/internal/gitlog"
	"coevo/internal/heartbeat"
	"coevo/internal/schema"
	"coevo/internal/schemadiff"
	"coevo/internal/sqlddl"
	"coevo/internal/textdiff"
	"coevo/internal/vcs"
)

// Errors returned by the extractors.
var (
	ErrNoDDLFile = errors.New("history: no DDL file found")
	ErrEmptyRepo = errors.New("history: repository has no commits")
	ErrManyDDL   = errors.New("history: multiple candidate DDL files")
	ErrNoCreates = errors.New("history: DDL file never contains a CREATE TABLE")
)

// Options configures schema-history extraction.
type Options struct {
	// CountBirth treats the first version of the DDL file as activity (its
	// tables' attributes are born then). This is the study's convention: a
	// frozen schema completes 100% of its evolution at its birth month.
	// Disabling it reproduces the raw pairwise heartbeat of the upstream
	// data set, where only version-to-version change counts.
	CountBirth bool

	// Dialect selects the SQL dialect adapter used to parse every version.
	// The zero value (Generic) reproduces the historical pipeline exactly;
	// sqlddl.Auto detects the dialect per version from its content.
	Dialect sqlddl.Dialect
}

// DefaultOptions returns the study's configuration.
func DefaultOptions() Options { return Options{CountBirth: true} }

// SchemaVersion is one committed state of the DDL file.
type SchemaVersion struct {
	Commit *vcs.Commit
	// Raw is the file content at the commit (nil when Deleted).
	Raw []byte
	// Schema is the logical schema reconstructed from Raw (an empty schema
	// for a deleted or unparseable file). The versions of one history
	// share every table whose CREATE TABLE statement they have in common:
	// change a schema only through Apply, which copies a shared table
	// first, or change a Clone.
	Schema *schema.Schema
	// Report is the structured parse outcome: resolved dialect, statement
	// accounting and coded diagnostics. Zero for deleted versions.
	Report schema.ParseReport
	// Deleted marks the version where the file was removed.
	Deleted bool
}

// When returns the commit time of the version.
func (v *SchemaVersion) When() time.Time { return v.Commit.When() }

// SchemaHistory is the parsed, diffed history of a project's DDL file.
type SchemaHistory struct {
	Path     string
	Versions []SchemaVersion
	// Deltas is aligned with Versions: Deltas[0] is the birth delta (from
	// the empty schema) and Deltas[i] compares version i-1 to i.
	Deltas []*schemadiff.Delta
	// NoOpCommits counts versions whose content was byte-identical to the
	// previous one — commits the substrate or the parser would otherwise
	// absorb silently. Surfaced in the parse-health report.
	NoOpCommits int
	opts        Options
}

// Activity returns the study's Activity for version i: attribute-level
// change volume relative to the previous version (or to the empty schema
// for i == 0 when birth counting is enabled).
func (h *SchemaHistory) Activity(i int) int {
	if i == 0 && !h.opts.CountBirth {
		return 0
	}
	return h.Deltas[i].TotalActivity()
}

// TotalActivity returns the lifetime Total Activity of the schema.
func (h *SchemaHistory) TotalActivity() int {
	total := 0
	for i := range h.Deltas {
		total += h.Activity(i)
	}
	return total
}

// ActiveCommits counts the versions whose delta carries logical change —
// the "active commits" of the paper's case study.
func (h *SchemaHistory) ActiveCommits() int {
	n := 0
	for i := range h.Deltas {
		if h.Activity(i) > 0 {
			n++
		}
	}
	return n
}

// CommitCount returns the number of versions (commits touching the file).
func (h *SchemaHistory) CommitCount() int { return len(h.Versions) }

// Events renders the history as dated activity events for heartbeat
// construction.
func (h *SchemaHistory) Events() []heartbeat.Event {
	events := make([]heartbeat.Event, 0, len(h.Versions))
	for i, v := range h.Versions {
		events = append(events, heartbeat.Event{When: v.When(), Amount: float64(h.Activity(i))})
	}
	return events
}

// Heartbeat builds the Monthly Schema Activity heartbeat spanning the
// schema's own lifetime.
func (h *SchemaHistory) Heartbeat() (*heartbeat.Heartbeat, error) {
	return heartbeat.FromEvents(h.Events())
}

// FinalSchema returns the last non-deleted schema state.
func (h *SchemaHistory) FinalSchema() *schema.Schema {
	for i := len(h.Versions) - 1; i >= 0; i-- {
		if !h.Versions[i].Deleted {
			return h.Versions[i].Schema
		}
	}
	return schema.New()
}

// ExtractSchemaHistory follows path through the repository's history,
// parsing every version leniently and diffing successive versions.
func ExtractSchemaHistory(repo *vcs.Repository, path string, opts Options) (*SchemaHistory, error) {
	if repo.CommitCount() == 0 {
		return nil, ErrEmptyRepo
	}
	return ExtractSchemaHistoryFromVersions(path, repo.FileVersions(path), opts)
}

// ExtractSchemaHistoryFromVersions builds the schema history from already
// listed file versions — the entry point for callers that walk the file
// history themselves (the study's cached pipeline lists versions once to
// address its result bundle, then extracts only on a cache miss). Every
// version is parsed, but one schema.Builder serves them all, so only the
// CREATE TABLE statements a version changed are built again.
func ExtractSchemaHistoryFromVersions(path string, fileVersions []vcs.FileVersion, opts Options) (*SchemaHistory, error) {
	if len(fileVersions) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoDDLFile, path)
	}
	h := &SchemaHistory{Path: path, opts: opts}
	var b schema.Builder
	schemas := make([]*schema.Schema, 0, len(fileVersions)+1)
	schemas = append(schemas, schema.New()) // the pre-birth empty schema
	anyCreate := false
	var prevRaw []byte
	havePrev := false
	for _, fv := range fileVersions {
		sv := SchemaVersion{Commit: fv.Commit, Raw: fv.Content, Deleted: fv.Deleted}
		if fv.Deleted {
			sv.Schema = schema.New()
		} else {
			if havePrev && bytes.Equal(prevRaw, fv.Content) {
				h.NoOpCommits++
			}
			prevRaw, havePrev = fv.Content, true
			s, rep := b.ParseAndBuild(string(fv.Content), opts.Dialect)
			sv.Schema = s
			sv.Report = rep
			if s.TableCount() > 0 {
				anyCreate = true
			}
		}
		h.Versions = append(h.Versions, sv)
		schemas = append(schemas, sv.Schema)
	}
	if !anyCreate {
		return nil, fmt.Errorf("%w: %s", ErrNoCreates, path)
	}
	h.Deltas = schemadiff.Sequence(schemas)
	return h, nil
}

// FindDDLPath locates the project's schema file: the unique .sql path ever
// committed. Multiple .sql files are resolved by preferring the one whose
// content contains CREATE TABLE in its first version; if that is still
// ambiguous, ErrManyDDL reports the candidates (the data set's elicitation
// keeps only single-file schema projects, so this mirrors its filter).
func FindDDLPath(repo *vcs.Repository) (string, error) {
	paths := map[string]bool{}
	for _, e := range repo.Log(vcs.LogOptions{Reverse: true}) {
		for _, ch := range e.Changes {
			if strings.HasSuffix(strings.ToLower(ch.Path), ".sql") {
				paths[ch.Path] = true
				if ch.OldPath != "" {
					delete(paths, ch.OldPath)
				}
			}
		}
	}
	switch len(paths) {
	case 0:
		return "", ErrNoDDLFile
	case 1:
		for p := range paths {
			return p, nil
		}
	}
	// Disambiguate by CREATE TABLE content.
	var withCreate []string
	for p := range paths {
		versions := repo.FileVersions(p)
		if len(versions) == 0 {
			continue
		}
		if firstVersionHasCreate(versions) {
			withCreate = append(withCreate, p)
		}
	}
	if len(withCreate) == 1 {
		return withCreate[0], nil
	}
	return "", fmt.Errorf("%w: %d candidates", ErrManyDDL, len(paths))
}

func firstVersionHasCreate(versions []vcs.FileVersion) bool {
	for _, v := range versions {
		if v.Deleted {
			continue
		}
		s, _ := schema.ParseAndBuildDialect(string(v.Content), sqlddl.Generic)
		return s.TableCount() > 0
	}
	return false
}

// ProjectCommit is one non-merge commit with its file-update count and,
// when extracted with line counting, its line churn.
type ProjectCommit struct {
	When  time.Time
	Files int
	// Lines is the added+removed line churn of the commit; zero unless the
	// history was extracted with ExtractProjectHistoryWithLines.
	Lines int
}

// ProjectHistory is the file-update history of the whole project.
type ProjectHistory struct {
	Commits []ProjectCommit
	// MergesSkipped counts the merge commits excluded from the history.
	// They used to vanish silently; the parse-health report surfaces them
	// so a project's commit accounting is auditable.
	MergesSkipped int
}

// CommitCount returns the number of non-merge commits.
func (p *ProjectHistory) CommitCount() int { return len(p.Commits) }

// TotalFileUpdates sums the per-commit changed-file counts.
func (p *ProjectHistory) TotalFileUpdates() int {
	total := 0
	for _, c := range p.Commits {
		total += c.Files
	}
	return total
}

// Span returns the first and last commit times.
func (p *ProjectHistory) Span() (first, last time.Time) {
	if len(p.Commits) == 0 {
		return
	}
	return p.Commits[0].When, p.Commits[len(p.Commits)-1].When
}

// DurationMonths returns the project's lifetime in whole months (the
// paper's Project Update Period, expressed as last month minus first
// month).
func (p *ProjectHistory) DurationMonths() int {
	if len(p.Commits) == 0 {
		return 0
	}
	first, last := p.Span()
	return int(heartbeat.MonthOf(last) - heartbeat.MonthOf(first))
}

// Events renders the history as dated activity events.
func (p *ProjectHistory) Events() []heartbeat.Event {
	events := make([]heartbeat.Event, 0, len(p.Commits))
	for _, c := range p.Commits {
		events = append(events, heartbeat.Event{When: c.When, Amount: float64(c.Files)})
	}
	return events
}

// Heartbeat builds the Monthly Project Activity heartbeat.
func (p *ProjectHistory) Heartbeat() (*heartbeat.Heartbeat, error) {
	return heartbeat.FromEvents(p.Events())
}

// ExtractProjectHistory reads the repository's non-merge commit log and
// counts updated files per commit, oldest first.
func ExtractProjectHistory(repo *vcs.Repository) (*ProjectHistory, error) {
	if repo.CommitCount() == 0 {
		return nil, ErrEmptyRepo
	}
	entries := repo.Log(vcs.LogOptions{NoMerges: true, Reverse: true})
	p := &ProjectHistory{
		Commits:       make([]ProjectCommit, 0, len(entries)),
		MergesSkipped: repo.CommitCount() - len(entries),
	}
	for _, e := range entries {
		p.Commits = append(p.Commits, ProjectCommit{
			When:  e.Commit.When(),
			Files: len(e.Changes),
		})
	}
	return p, nil
}

// ProjectHistoryFromLog builds a project history from parsed `git log`
// entries (newest-first, as git emits them), enabling ingestion of real
// repositories via their textual log. Merge entries are skipped.
func ProjectHistoryFromLog(entries []gitlog.Entry) (*ProjectHistory, error) {
	if len(entries) == 0 {
		return nil, ErrEmptyRepo
	}
	p := &ProjectHistory{}
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if e.IsMerge() {
			p.MergesSkipped++
			continue
		}
		p.Commits = append(p.Commits, ProjectCommit{
			When:  e.Date,
			Files: len(e.Changes),
		})
	}
	if len(p.Commits) == 0 {
		return nil, ErrEmptyRepo
	}
	return p, nil
}

// DatedContent is one externally-supplied version of a DDL file: its
// commit date and raw content. It feeds SchemaHistoryFromContents, the
// ingestion path for real repositories (export each version with
// `git show <commit>:<path>` into dated files).
type DatedContent struct {
	When    time.Time
	Content []byte
}

// VersionName is one named DDL version in commit order: the name as
// given and the commit time ingestion assigns it.
type VersionName struct {
	Name string
	When time.Time
}

// ParseVersionNames parses the names of a project's exported DDL
// versions and returns them in commit order. A name is the version's
// date, "YYYY-MM-DD", optionally followed by ".N" — one or more ASCII
// digits — to order several versions of one day; the plain date is
// sequence 0. Versions sort by date, then sequence, and each is
// committed at its day plus one minute per version before it, so commit
// times strictly increase. Two names with the same date and sequence
// ("2016-01-10" and "2016-01-10.0", or ".1" and ".01") are an error,
// since nothing would order them. The result and any error are
// independent of the order of names.
func ParseVersionNames(names []string) ([]VersionName, error) {
	type parsed struct {
		name string
		day  time.Time
		seq  int
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	ps := make([]parsed, len(sorted))
	for i, name := range sorted {
		date, suffix, hasSeq := strings.Cut(name, ".")
		seq := 0
		if hasSeq {
			n, err := strconv.Atoi(suffix)
			if err != nil || strings.Trim(suffix, "0123456789") != "" {
				return nil, fmt.Errorf("history: DDL version %q: sequence must be one or more digits (YYYY-MM-DD.N)", name)
			}
			seq = n
		}
		day, err := time.Parse("2006-01-02", date)
		if err != nil {
			return nil, fmt.Errorf("history: DDL version %q: name must be YYYY-MM-DD or YYYY-MM-DD.N: %w", name, err)
		}
		ps[i] = parsed{name: name, day: day, seq: seq}
	}
	sort.SliceStable(ps, func(i, j int) bool {
		if !ps[i].day.Equal(ps[j].day) {
			return ps[i].day.Before(ps[j].day)
		}
		return ps[i].seq < ps[j].seq
	})
	out := make([]VersionName, len(ps))
	for i, p := range ps {
		if i > 0 && p.day.Equal(ps[i-1].day) && p.seq == ps[i-1].seq {
			return nil, fmt.Errorf("history: DDL versions %q and %q have the same date and sequence", ps[i-1].name, p.name)
		}
		out[i] = VersionName{Name: p.name, When: p.day.Add(time.Duration(i) * time.Minute)}
	}
	return out, nil
}

// SchemaHistoryFromContents builds a schema history from externally
// extracted file versions. Versions are sorted by date; identical
// consecutive contents are retained (they become inactive commits, exactly
// as a cosmetic edit would).
func SchemaHistoryFromContents(path string, versions []DatedContent, opts Options) (*SchemaHistory, error) {
	if len(versions) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoDDLFile, path)
	}
	sorted := append([]DatedContent(nil), versions...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].When.Before(sorted[j].When) })

	// Count byte-identical consecutive versions up front: the replay below
	// perturbs their content to keep the substrate from absorbing them, so
	// the extraction itself can no longer see that they were no-ops.
	noOps := 0
	for i := 1; i < len(sorted); i++ {
		if bytes.Equal(sorted[i-1].Content, sorted[i].Content) {
			noOps++
		}
	}

	// Replay the versions into a throwaway repository so the extraction
	// path is byte-for-byte the one used for real repositories.
	repo := vcs.NewRepository("ingest")
	prev := []byte(nil)
	for i, v := range sorted {
		content := v.Content
		if prev != nil && string(prev) == string(content) {
			// The substrate skips no-op commits; force a distinct blob by
			// appending a newline so the version count is preserved, then
			// rely on the parser ignoring trailing whitespace.
			content = append(append([]byte(nil), content...), '\n')
		}
		repo.Stage(path, content)
		if _, err := repo.Commit(fmt.Sprintf("version %d", i), vcs.Signature{
			Name: "ingest", Email: "ingest@localhost", When: v.When,
		}); err != nil {
			return nil, fmt.Errorf("history: replaying version %d: %w", i, err)
		}
		prev = content
	}
	h, err := ExtractSchemaHistory(repo, path, opts)
	if err != nil {
		return nil, err
	}
	h.NoOpCommits = noOps
	return h, nil
}

// ExtractProjectHistoryWithLines reads the non-merge commit log and counts
// both updated files and line churn (lines added + removed) per commit —
// the "more precise unit of change" the paper's future work calls for.
// Line counting requires content access, so it only works against a vcs
// repository (not a textual git log). Both sides of a change come from
// change lists, so no commit's full tree is ever materialized.
func ExtractProjectHistoryWithLines(repo *vcs.Repository) (*ProjectHistory, error) {
	if repo.CommitCount() == 0 {
		return nil, ErrEmptyRepo
	}
	entries := repo.Log(vcs.LogOptions{NoMerges: true, Reverse: true})
	p := &ProjectHistory{
		Commits:       make([]ProjectCommit, 0, len(entries)),
		MergesSkipped: repo.CommitCount() - len(entries),
	}
	for _, e := range entries {
		lines := 0
		for _, ch := range e.Changes {
			oldPath := ch.Path
			if ch.Status == vcs.Renamed {
				oldPath = ch.OldPath
			}
			newContent, _ := repo.ChangedContent(ch)
			lines += textdiff.Diff(contentBefore(repo, e.Commit, oldPath), newContent).Total()
		}
		p.Commits = append(p.Commits, ProjectCommit{
			When:  e.Commit.When(),
			Files: len(e.Changes),
			Lines: lines,
		})
	}
	return p, nil
}

// contentBefore returns path's content in c's first parent: the blob set
// by the nearest first-parent ancestor whose change list touches path,
// nil when that change deletes or renames path away, or when no ancestor
// touches it. Within one change list the last matching change wins, as
// when vcs materializes a tree.
func contentBefore(repo *vcs.Repository, c *vcs.Commit, path string) []byte {
	for len(c.Parents) > 0 {
		parent, err := repo.CommitByHash(c.Parents[0])
		if err != nil {
			return nil
		}
		changes, _ := repo.Changes(parent.Hash)
		touched, content := false, []byte(nil)
		for _, ch := range changes {
			switch {
			case ch.Path == path:
				touched = true
				content, _ = repo.ChangedContent(ch)
			case ch.Status == vcs.Renamed && ch.OldPath == path:
				touched, content = true, nil
			}
		}
		if touched {
			return content
		}
		c = parent
	}
	return nil
}

// LineEvents renders the history as line-churn events. Commits extracted
// without line counting contribute zero.
func (p *ProjectHistory) LineEvents() []heartbeat.Event {
	events := make([]heartbeat.Event, 0, len(p.Commits))
	for _, c := range p.Commits {
		events = append(events, heartbeat.Event{When: c.When, Amount: float64(c.Lines)})
	}
	return events
}

// LineHeartbeat builds the line-weighted Monthly Project Activity
// heartbeat.
func (p *ProjectHistory) LineHeartbeat() (*heartbeat.Heartbeat, error) {
	return heartbeat.FromEvents(p.LineEvents())
}

// TotalLineChurn sums the per-commit line churn.
func (p *ProjectHistory) TotalLineChurn() int {
	total := 0
	for _, c := range p.Commits {
		total += c.Lines
	}
	return total
}
