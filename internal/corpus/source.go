package corpus

// Lazy corpus generation: Source hands projects out one at a time so a
// streaming pipeline can generate, analyze and release them with
// O(workers) repositories in memory, instead of materializing the whole
// corpus.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"coevo/internal/engine"
)

// genSpec pins one project's generation inputs: its profile and its
// corpus index (which seeds the project's private rand source).
type genSpec struct {
	prof Profile
	idx  int
}

// Source generates the corpus described by a Config lazily, in corpus
// order: each Next call claims the next project index under the source's
// lock and materializes the repository outside it, so concurrent callers
// (the engine's workers) generate in parallel while the corpus as a
// whole is never resident. The projects produced are bit-for-bit the
// ones Generate returns — each seeds its own rand source from the corpus
// seed and its index, independent of who generates it when.
type Source struct {
	cfg   Config
	specs []genSpec

	mu   sync.Mutex
	next int
}

// NewSource prepares a lazy generator for cfg, applying the same
// defaults as Generate (default profiles, epoch, start spread).
func NewSource(cfg Config) *Source {
	if cfg.Profiles == nil {
		cfg.Profiles = DefaultProfiles()
	}
	if cfg.Epoch.IsZero() {
		cfg.Epoch = time.Date(2008, time.January, 1, 0, 0, 0, 0, time.UTC)
	}
	if cfg.StartSpreadMonths <= 0 {
		cfg.StartSpreadMonths = 72
	}
	var specs []genSpec
	for _, prof := range cfg.Profiles {
		for i := 0; i < prof.Count; i++ {
			specs = append(specs, genSpec{prof: prof, idx: len(specs)})
		}
	}
	return &Source{cfg: cfg, specs: specs}
}

// Len is the total number of projects the source will produce.
func (s *Source) Len() int { return len(s.specs) }

// Partition narrows the source to shard k of n: exactly the projects
// whose global corpus index ≡ k (mod n), in corpus order. Each project
// keeps its global index — generation seeds from cfg.Seed + idx·7919,
// so a partitioned project is bit-for-bit the one the full source
// produces — while the partition presents its own dense 0-based local
// indices to the engine (map them back with GlobalIndex). Partitions of
// one source are disjoint and their union is the full corpus, which is
// what makes sharded studies exactly mergeable.
func (s *Source) Partition(shard, of int) (*Source, error) {
	if of <= 0 || shard < 0 || shard >= of {
		return nil, fmt.Errorf("corpus: invalid partition %d/%d", shard, of)
	}
	specs := make([]genSpec, 0, (len(s.specs)+of-1)/of)
	for _, sp := range s.specs {
		if sp.idx%of == shard {
			specs = append(specs, sp)
		}
	}
	return &Source{cfg: s.cfg, specs: specs}, nil
}

// GlobalIndex maps a local (dense) index of this source to the global
// corpus index of the project it produces. For an unpartitioned source
// the two coincide.
func (s *Source) GlobalIndex(local int) int { return s.specs[local].idx }

// ProjectName names the project at a local index by its global corpus
// identity, so logs and failure reports from a partitioned run match
// the full-corpus run's names.
func (s *Source) ProjectName(local int) string { return ProjectName(s.GlobalIndex(local)) }

// Next generates and returns the next project of the corpus, or (nil,
// nil) when the corpus is exhausted. Safe for concurrent use; projects
// come back in claim order per caller, with indices dense across
// callers.
func (s *Source) Next(ctx context.Context) (*Project, error) {
	p, _, ok, err := s.claimAndGenerate(ctx)
	if err != nil || !ok {
		return nil, err
	}
	return p, nil
}

// Indexed exposes the source in the execution engine's indexed form, for
// engine.Stream: same lazy generation, with each project tagged by its
// corpus index so the re-sequencer can restore corpus order.
func (s *Source) Indexed() engine.Source[*Project] { return indexedSource{s} }

type indexedSource struct{ s *Source }

// Next implements engine.Source.
func (is indexedSource) Next(ctx context.Context) (*Project, int, bool, error) {
	return is.s.claimAndGenerate(ctx)
}

// claimAndGenerate claims the next local position under the lock and
// generates outside it. Generation runs inside the caller's context, so
// under the engine the work lands in the claiming task's "generate"
// stage timing. The returned index is the source-local dense position —
// the engine's re-sequencer requires dense 0-based indices — while the
// project itself is seeded by its global corpus index, so a partitioned
// source still generates globally-identical projects.
func (s *Source) claimAndGenerate(ctx context.Context) (*Project, int, bool, error) {
	s.mu.Lock()
	if s.next >= len(s.specs) {
		s.mu.Unlock()
		return nil, 0, false, nil
	}
	local := s.next
	sp := s.specs[local]
	s.next++
	s.mu.Unlock()

	if err := ctx.Err(); err != nil {
		return nil, 0, false, err
	}
	engine.Stage(ctx, "generate")
	p, err := generateProjectCached(s.cfg, sp.prof, sp.idx)
	if err != nil {
		return nil, 0, false, fmt.Errorf("corpus: project %d (%s): %w", sp.idx, sp.prof.Taxon, err)
	}
	return p, local, true, nil
}

// EachContext streams the corpus described by cfg through visit in
// corpus order, releasing each project as soon as visit returns (unless
// visit keeps it, as GenerateContext does). Generation is concurrent
// (cfg.Exec bounded) behind the engine's bounded reorder window; visit
// is called serialized, in corpus order. Returns how many projects were
// visited.
func EachContext(ctx context.Context, cfg Config, visit func(*Project) error) (int, error) {
	s := NewSource(cfg)
	eopts := s.cfg.Exec
	// A generation failure means the configuration itself is broken; no
	// point materializing the rest of a corpus that cannot be studied.
	eopts.Policy = engine.FailFast
	if eopts.Name == nil {
		// Label by global corpus index, so a partitioned source's failure
		// reports name the same projects the full corpus would.
		eopts.Name = func(i int) string { return fmt.Sprintf("project-%03d", s.GlobalIndex(i)) }
	}
	eopts.Obs = s.cfg.Obs
	eopts.Scope = "generate"
	ctx, span := s.cfg.Obs.StartSpan(ctx, "generate")
	defer span.End()
	span.SetArg("projects", fmt.Sprint(s.Len()))
	begin := time.Now()
	s.cfg.Obs.Logger().Info("corpus: generating", "projects", s.Len(), "seed", s.cfg.Seed)
	var n int
	_, err := engine.Stream(ctx, s.Indexed(),
		func(_ context.Context, _ int, p *Project) (*Project, error) { return p, nil },
		func(_ int, p *Project) error { n++; return visit(p) },
		engine.StreamOptions{Options: eopts, Total: s.Len()})
	if err != nil {
		// Surface the source's own (already project-labelled) cause; the
		// engine's wrapping only says how the failure travelled.
		var se *engine.SourceError
		if errors.As(err, &se) {
			return n, se.Err
		}
		var te *engine.TaskError
		if errors.As(err, &te) {
			return n, te.Err
		}
		return n, err
	}
	s.cfg.Obs.Logger().Info("corpus: generated", "projects", n, "elapsed", time.Since(begin))
	return n, nil
}
