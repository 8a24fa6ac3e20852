package study

// The study's one execution path: every corpus-wide entry point —
// StreamCorpus, RunStream, AnalyzeCorpusContext and Run — drives the same
// engine stream, with per-project results handed to a Sink in corpus
// order and released immediately. Peak memory is O(workers + reorder
// window) repositories instead of O(corpus); the collect-all entry points
// are that stream feeding a DatasetSink, so they cannot drift from it.

import (
	"context"
	"errors"
	"fmt"

	"coevo/internal/cache"
	"coevo/internal/corpus"
	"coevo/internal/engine"
)

// StreamSummary reports what a streaming study run covered.
type StreamSummary struct {
	// Projects is the number of results delivered to the sink.
	Projects int
	// Failures lists the projects that could not be analyzed, in corpus
	// order, each with its global corpus index.
	Failures []Failure
}

// DatasetSink collects streamed results into a Dataset — the bridge for
// callers that want the batch aggregation API over the streaming engine.
// It forfeits the streaming path's memory bound, since the Dataset
// retains every result.
type DatasetSink struct{ d Dataset }

// Add implements Sink.
func (s *DatasetSink) Add(p *ProjectResult) error {
	s.d.Projects = append(s.d.Projects, p)
	return nil
}

// Dataset returns the collected results.
func (s *DatasetSink) Dataset() *Dataset { return &s.d }

// collect runs a stream into a fresh DatasetSink and returns the
// Dataset with the run's failures attached — partial when err is set.
func collect(run func(Sink) (*StreamSummary, error)) (*Dataset, error) {
	var sink DatasetSink
	sum, err := run(&sink)
	d := sink.Dataset()
	d.Failures = sum.Failures
	return d, err
}

// StreamCorpus generates and analyzes src's corpus as one fused stream:
// the engine's workers pull projects from the source (generation runs as
// the task's "generate" stage), analyze them, and the re-sequencer hands
// each result to sink in corpus order, after which the project's
// repository is unreferenced and collectable. The reorder window bounds
// how many completed results wait for an earlier straggler, so peak
// memory is O(workers) repositories regardless of corpus size. With
// opts.Cache set, a project whose result the cache holds is never
// generated (see specSource).
//
// Under the default CollectErrors policy a failed project lands in
// StreamSummary.Failures (its slot is skipped, later results still
// arrive in order) and the returned error is non-nil only when the run
// itself stops — context cancellation, FailFast, a generation error, or
// a sink error. The summary always reports what was delivered before the
// stop.
func StreamCorpus(ctx context.Context, src *corpus.Source, sink Sink, opts Options) (*StreamSummary, error) {
	// Name and index by the source, not the package-level convention: a
	// partitioned source's local index i is global index
	// src.GlobalIndex(i), and failure reports must name the real project.
	return streamProjects(ctx, specSource{src, opts}, src.Len(), src.ProjectName, src.GlobalIndex, sink, opts)
}

// work is one project as a stream task receives it: the project to
// analyze, or the result its project entry restored. entry, when set, is
// where the analyzed project's entry goes.
type work struct {
	p     *corpus.Project
	res   *ProjectResult
	entry cache.Key
}

// specSource is StreamCorpus's engine source. It claims each project's
// spec and, with a cache, looks the project's entry up before generating
// anything: a hit hands the task the restored result, a miss the
// generated project. Next runs in the claiming task's context, so the
// lookup is the task's "cache" stage, generation its "generate" stage,
// and a generation error aborts the stream as a source error.
type specSource struct {
	src  *corpus.Source
	opts Options
}

// Next implements engine.Source.
func (s specSource) Next(ctx context.Context) (work, int, bool, error) {
	sp, local, ok := s.src.Claim()
	if !ok {
		return work{}, 0, false, nil
	}
	if err := ctx.Err(); err != nil {
		return work{}, 0, false, err
	}
	var w work
	if c := s.opts.Cache; c != nil {
		engine.Stage(ctx, "cache")
		w.entry = projectKey(sp, s.opts)
		if res, ok := loadProject(c, w.entry); ok {
			res.Name = sp.Name()
			intended := sp.Taxon()
			res.IntendedTaxon = &intended
			return work{res: res}, local, true, nil
		}
	}
	engine.Stage(ctx, "generate")
	p, err := sp.Generate()
	if err != nil {
		return work{}, 0, false, err
	}
	w.p = p
	return w, local, true, nil
}

// streamProjects is the body every corpus-wide entry point shares: it
// analyzes each project src yields on the engine and delivers the
// results to sink in index order. total sizes the pool and progress
// events, name labels local index i, and global maps it to the corpus
// index that index-aware sinks and failure reports carry.
func streamProjects(ctx context.Context, src engine.Source[work], total int,
	name func(int) string, global func(int) int, sink Sink, opts Options) (*StreamSummary, error) {
	eopts := opts.Exec
	if eopts.Name == nil {
		eopts.Name = name
	}
	eopts.Obs = opts.Obs
	eopts.Scope = "analyze"
	if eopts.WorkerState == nil {
		// Each engine worker carries its own measure scratch: tasks mutate
		// it lock-free and nothing crosses worker boundaries.
		eopts.WorkerState = func() any { return newMeasureScratch() }
	}
	ctx, span := opts.Obs.StartSpan(ctx, "analyze")
	defer span.End()
	span.SetArg("projects", fmt.Sprint(total))
	log := opts.Obs.Logger()
	log.Info("study: analyzing corpus", "projects", total)
	sum := &StreamSummary{}
	failures, err := engine.Stream(ctx, src,
		func(ctx context.Context, _ int, w work) (*ProjectResult, error) {
			if w.res != nil {
				return w.res, nil
			}
			res, bundle, err := analyzeRepository(ctx, w.p.Repo, w.p.DDLPath, opts)
			if err != nil {
				return nil, err
			}
			intended := w.p.Taxon
			res.IntendedTaxon = &intended
			if w.entry != (cache.Key{}) {
				storeProject(opts.Cache, w.entry, bundle, res.DDLPath)
			}
			return res, nil
		},
		func(i int, res *ProjectResult) error {
			sum.Projects++
			// Index-aware sinks see the global corpus index, so shard
			// partials key their order-sensitive state by true corpus
			// position and merge back into the sequential fold.
			return deliver(sink, int64(global(i)), res)
		},
		engine.StreamOptions{Options: eopts, Total: total})
	for _, f := range failures {
		sum.Failures = append(sum.Failures, Failure{Name: f.Name, Index: global(f.Index), Err: f.Err})
	}
	if err != nil {
		// Surface the corpus's own (already project-labelled) cause; the
		// engine's wrapping only says how the failure travelled.
		var se *engine.SourceError
		if errors.As(err, &se) {
			return sum, se.Err
		}
		return sum, err
	}
	log.Info("study: corpus analyzed", "projects", sum.Projects, "failures", len(sum.Failures))
	return sum, nil
}

// RunStream generates the default corpus for seed and feeds every
// analyzed project to sink in corpus order, never holding the whole
// corpus or dataset. A sink built from NewFigures reproduces every figure
// and statistic of the paper.
func RunStream(ctx context.Context, seed int64, opts Options, sink Sink) (*StreamSummary, error) {
	ctx, span := opts.Obs.StartSpan(ctx, "run")
	defer span.End()
	opts.Obs.Logger().Info("study: run starting", "seed", seed)
	return StreamCorpus(ctx, corpus.NewSource(corpus.DefaultConfig(seed)), sink, opts)
}
