// Package study runs the paper's end-to-end pipeline: for every project,
// extract the schema and project histories, build the monthly heartbeats,
// align them into a joint progress diagram, compute the co-evolution
// measures and classify the taxon; then aggregate the per-project results
// into the evaluation's figures and statistical tests.
package study

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"coevo/internal/cache"
	"coevo/internal/coevolution"
	"coevo/internal/corpus"
	"coevo/internal/engine"
	"coevo/internal/heartbeat"
	"coevo/internal/history"
	"coevo/internal/obs"
	"coevo/internal/schemadiff"
	"coevo/internal/taxa"
	"coevo/internal/vcs"
)

// ProjectResult carries everything the study measures for one project.
type ProjectResult struct {
	Name    string
	DDLPath string

	// Taxon is the measured archetype; IntendedTaxon is the generator's
	// target when the project came from the synthetic corpus (nil
	// otherwise) — keeping both makes generator drift visible.
	Taxon         taxa.Taxon
	IntendedTaxon *taxa.Taxon

	// Raw history statistics.
	DurationMonths      int
	SchemaCommits       int
	ActiveSchemaCommits int
	ProjectCommits      int
	FileUpdates         int
	TotalSchemaActivity int

	// Joint is the three-series joint progress diagram.
	Joint *coevolution.JointProgress
	// Measures is the full measure suite over Joint.
	Measures *coevolution.Measures
	// Locality summarizes how concentrated the schema's change was across
	// its tables (the related-work locality finding).
	Locality schemadiff.Locality

	// ParseHealth aggregates what the recovering parser did to every
	// version of the project's DDL file, plus the commits the extraction
	// excluded (merges, byte-identical no-ops).
	ParseHealth history.ParseHealth
}

// Options configures the analysis.
type Options struct {
	History history.Options
	Taxa    taxa.Config
	// Theta values are fixed by the paper (5% and 10%) inside
	// coevolution.ComputeMeasures.

	// Exec configures the execution engine AnalyzeCorpus runs on: worker
	// count (default GOMAXPROCS), failure policy (default CollectErrors —
	// per-project failures are recorded in Dataset.Failures instead of
	// aborting the study), and an optional event observer for progress
	// reporting and metrics.
	Exec engine.Options

	// Cache, when non-nil, memoizes each project's whole measure bundle
	// in the content-addressed result cache, keyed by the project's input
	// histories. StreamCorpus also keys each generated project by its
	// generator inputs, so a warm stream restores every result without
	// generating a project. It is the analysis's only cache setting.
	// Output is byte-identical with a cold, warm or absent cache; see
	// internal/cache.
	Cache *cache.Cache

	// Obs, when non-nil, observes the run: orchestration spans (run →
	// analyze, with per-project task and stage spans from the engine), the
	// unified metrics registry and structured logs. A nil Obs is a
	// zero-cost no-op and study output is byte-identical either way.
	Obs *obs.Observer
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{History: history.DefaultOptions(), Taxa: taxa.DefaultConfig()}
}

// AnalyzeRepository measures one repository. ddlPath may be empty, in
// which case it is located with history.FindDDLPath.
func AnalyzeRepository(repo *vcs.Repository, ddlPath string, opts Options) (*ProjectResult, error) {
	return AnalyzeRepositoryContext(context.Background(), repo, ddlPath, opts)
}

// AnalyzeRepositoryContext is AnalyzeRepository with a caller context: the
// analysis observes cancellation between pipeline stages and the run is
// traced as an "analyze" span when opts.Obs is set.
func AnalyzeRepositoryContext(ctx context.Context, repo *vcs.Repository, ddlPath string, opts Options) (*ProjectResult, error) {
	ctx, span := opts.Obs.StartSpan(ctx, "analyze "+repo.Name())
	defer span.End()
	res, _, err := analyzeRepository(ctx, repo, ddlPath, opts)
	return res, err
}

// analyzeRepository is the repository entry point of the cached pipeline,
// with its phases marked as engine stages: it locates the DDL file when
// ddlPath is empty ("locate"), lists the file's versions and extracts the
// project history ("extract"), and measures them through measureCached,
// which parses and diffs the versions only when their bundle misses. With
// a cache it also returns the bundle's key.
func analyzeRepository(ctx context.Context, repo *vcs.Repository, ddlPath string, opts Options) (*ProjectResult, cache.Key, error) {
	if err := ctx.Err(); err != nil {
		return nil, cache.Key{}, err
	}
	name := repo.Name()
	if ddlPath == "" {
		engine.Stage(ctx, "locate")
		found, err := history.FindDDLPath(repo)
		if err != nil {
			return nil, cache.Key{}, fmt.Errorf("study: %s: %w", name, err)
		}
		ddlPath = found
	}
	engine.Stage(ctx, "extract")
	ph, err := history.ExtractProjectHistory(repo)
	if err != nil {
		return nil, cache.Key{}, fmt.Errorf("study: %s: %w", name, err)
	}
	fvs := repo.FileVersions(ddlPath)
	at := func(i int) (time.Time, bool, []byte) { return fvs[i].Commit.When(), fvs[i].Deleted, fvs[i].Content }
	extract := func() (*history.SchemaHistory, error) {
		engine.Stage(ctx, "extract")
		return history.ExtractSchemaHistoryFromVersions(ddlPath, fvs, opts.History)
	}
	return measureCached(ctx, name, ddlPath, ph, len(fvs), at, extract, opts)
}

// AnalyzeHistories measures a project given already-extracted histories
// (the entry point for real-git ingestion, where the project history comes
// from a parsed `git log` and the schema history from dated file
// versions). It runs the one cached measure the repository entry points
// run, so an ingested history and a generated repository with the same
// versions and commits share a measure bundle. The schema history must
// have been extracted with opts.History for the bundle's key to be
// truthful.
func AnalyzeHistories(name, ddlPath string, sh *history.SchemaHistory, ph *history.ProjectHistory, opts Options) (*ProjectResult, error) {
	at := func(i int) (time.Time, bool, []byte) {
		v := &sh.Versions[i]
		return v.When(), v.Deleted, v.Raw
	}
	extract := func() (*history.SchemaHistory, error) { return sh, nil }
	res, _, err := measureCached(context.Background(), name, ddlPath, ph, len(sh.Versions), at, extract, opts)
	return res, err
}

// measureCached is how every project is measured. With a cache it looks
// the measure bundle up (the "cache" stage) under the key measureKey
// folds from the project history and the n schema versions at returns.
// On a miss, or without a cache, it takes the schema history from
// extract, analyzes it (the "measure" stage) and stores the bundle. The
// repository road keys its raw file versions and parses them only in
// extract, so a hit skips parsing and diffing; ingest keys the versions
// of the history it already extracted. With a cache it also returns the
// bundle's key.
func measureCached(ctx context.Context, name, ddlPath string, ph *history.ProjectHistory,
	n int, at versionAt, extract func() (*history.SchemaHistory, error), opts Options) (*ProjectResult, cache.Key, error) {
	var key cache.Key
	c := opts.Cache
	if c != nil {
		engine.Stage(ctx, "cache")
		key = measureKey(n, at, ph, opts)
		if res, ok := loadBundle(c, key); ok {
			res.Name, res.DDLPath = name, ddlPath
			return res, key, nil
		}
	}
	sh, err := extract()
	if err != nil {
		return nil, key, fmt.Errorf("study: %s: %w", name, err)
	}
	engine.Stage(ctx, "measure")
	res, err := analyze(ctx, name, ddlPath, sh, ph, opts)
	if err != nil {
		return nil, key, err
	}
	if c != nil {
		storeBundle(c, key, res)
	}
	return res, key, nil
}

// measureScratch holds the per-project working set of analyze() — the
// ever-existed table set and its flattened name list. Both are consumed
// within one analyze call (MeasureLocality does not retain allTables), so
// the scratch is reusable across projects: engine workers each carry a
// private instance via Options.WorkerState, and serial callers fall back
// to a sync.Pool.
type measureScratch struct {
	tableSet  map[string]bool
	allTables []string
}

func newMeasureScratch() *measureScratch {
	return &measureScratch{tableSet: make(map[string]bool, 32)}
}

var measureScratchPool = sync.Pool{New: func() any { return newMeasureScratch() }}

func analyze(ctx context.Context, name, ddlPath string, sh *history.SchemaHistory, ph *history.ProjectHistory, opts Options) (*ProjectResult, error) {
	shb, err := sh.Heartbeat()
	if err != nil {
		return nil, fmt.Errorf("study: %s: schema heartbeat: %w", name, err)
	}
	phb, err := ph.Heartbeat()
	if err != nil {
		return nil, fmt.Errorf("study: %s: project heartbeat: %w", name, err)
	}
	aligned, err := heartbeat.Align(phb, shb)
	if err != nil {
		return nil, fmt.Errorf("study: %s: align: %w", name, err)
	}
	joint := coevolution.FromAligned(aligned)
	measures, err := coevolution.ComputeMeasures(joint)
	if err != nil {
		return nil, fmt.Errorf("study: %s: measures: %w", name, err)
	}
	// Change locality: every table that ever existed in the history,
	// measured over the post-birth deltas only (the initial declaration
	// "changes" every table and would mask the locality of evolution).
	sc, ownedByWorker := engine.State(ctx).(*measureScratch)
	if !ownedByWorker {
		sc = measureScratchPool.Get().(*measureScratch)
	}
	clear(sc.tableSet)
	for _, v := range sh.Versions {
		for _, t := range v.Schema.Tables() {
			sc.tableSet[strings.ToLower(t.Name)] = true
		}
	}
	sc.allTables = sc.allTables[:0]
	for t := range sc.tableSet {
		sc.allTables = append(sc.allTables, t)
	}
	locality := schemadiff.MeasureLocality(postBirthDeltas(sh), sc.allTables)
	if !ownedByWorker {
		measureScratchPool.Put(sc)
	}

	health := sh.ParseHealth()
	health.MergesSkipped = ph.MergesSkipped

	return &ProjectResult{
		Name:                name,
		DDLPath:             ddlPath,
		Taxon:               taxa.ClassifyHistory(sh, opts.Taxa),
		ParseHealth:         health,
		DurationMonths:      measures.DurationMonths,
		SchemaCommits:       sh.CommitCount(),
		ActiveSchemaCommits: sh.ActiveCommits(),
		ProjectCommits:      ph.CommitCount(),
		FileUpdates:         ph.TotalFileUpdates(),
		TotalSchemaActivity: sh.TotalActivity(),
		Joint:               joint,
		Measures:            measures,
		Locality:            locality,
	}, nil
}

// Failure records one project the study could not measure, with the
// wrapped per-project cause (a recovered panic surfaces here as an
// *engine.PanicError).
type Failure struct {
	Name string
	// Index is the project's global corpus index (its slice position for
	// AnalyzeCorpusContext). Shard merges sort failure lists by it to
	// restore corpus order.
	Index int
	Err   error
}

// Dataset is the full per-project result collection of one study run.
type Dataset struct {
	Projects []*ProjectResult
	// Failures lists the projects that could not be analyzed, in project
	// order. Aggregations operate over Projects only, so a partial study
	// still yields every figure.
	Failures []Failure
}

// Size returns the number of analyzed projects.
func (d *Dataset) Size() int { return len(d.Projects) }

// ByTaxon groups the projects by measured taxon.
func (d *Dataset) ByTaxon() map[taxa.Taxon][]*ProjectResult {
	groups := make(map[taxa.Taxon][]*ProjectResult, taxa.Count)
	for _, p := range d.Projects {
		groups[p.Taxon] = append(groups[p.Taxon], p)
	}
	return groups
}

// AnalyzeCorpus measures every project of a synthetic corpus. See
// AnalyzeCorpusContext for the execution semantics.
func AnalyzeCorpus(projects []*corpus.Project, opts Options) (*Dataset, error) {
	return AnalyzeCorpusContext(context.Background(), projects, opts)
}

// AnalyzeCorpusContext measures every project of a materialized corpus:
// the slice is streamed through the same engine path as StreamCorpus
// into a DatasetSink. Projects are analyzed concurrently
// (opts.Exec.Workers bounded, default GOMAXPROCS), and the dataset's
// project order follows the slice order regardless of completion order,
// so figures and CSV exports are byte-identical to a serial run.
//
// Under the default CollectErrors policy a project whose analysis fails —
// or panics — is recorded in Dataset.Failures (Index is its slice
// position) and the study continues; the returned error is non-nil only
// when the run itself stops (context cancellation, or the FailFast
// policy). Even then the partial dataset accumulated so far is returned
// alongside the error, so an interrupted run can still report what it
// completed.
func AnalyzeCorpusContext(ctx context.Context, projects []*corpus.Project, opts Options) (*Dataset, error) {
	items := engine.SliceSource(projects)
	src := engine.SourceFunc[work](func(ctx context.Context) (work, int, bool, error) {
		p, i, ok, err := items.Next(ctx)
		return work{p: p}, i, ok, err
	})
	return collect(func(sink Sink) (*StreamSummary, error) {
		return streamProjects(ctx, src, len(projects),
			func(i int) string { return projects[i].Name },
			func(i int) int { return i }, sink, opts)
	})
}

// RunDefault generates the default 195-project corpus with the given seed
// and analyzes it — the one-call entry point used by benchmarks, examples
// and the CLI.
func RunDefault(seed int64) (*Dataset, error) {
	return Run(context.Background(), seed, DefaultOptions())
}

// Run generates the default corpus with the given seed and analyzes it
// under the given options: RunStream into a DatasetSink, so generation
// is the "generate" stage of each analyze task. On a stopped run the
// partial dataset is returned alongside the error.
func Run(ctx context.Context, seed int64, opts Options) (*Dataset, error) {
	return collect(func(sink Sink) (*StreamSummary, error) {
		return RunStream(ctx, seed, opts, sink)
	})
}

// postBirthDeltas returns the delta sequence excluding the schema's birth.
func postBirthDeltas(sh *history.SchemaHistory) []*schemadiff.Delta {
	if len(sh.Deltas) <= 1 {
		return nil
	}
	return sh.Deltas[1:]
}
