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

	"coevo/internal/cache"
	"coevo/internal/engine"
	"coevo/internal/taxa"
)

// GenerateStage versions the generator's output. Bump it whenever the
// project generated for a given configuration changes; every cache key
// that stands for a generated project folds it in (Spec.Fold).
const GenerateStage = "corpus/generate/v1"

// Spec is one project's generator inputs as a Source hands them out: the
// corpus-wide knobs, the taxon profile and the global corpus index that
// seeds the project's private rand source. Generation is a pure function
// of a spec, so a spec stands for its project before it exists.
type Spec struct {
	cfg  *Config
	prof Profile
	idx  int
}

// Name is the name the generated repository carries.
func (sp Spec) Name() string { return ProjectName(sp.idx) }

// Taxon is the taxon the generator aims for.
func (sp Spec) Taxon() taxa.Taxon { return sp.prof.Taxon }

// Generate materializes the project, bit-for-bit the one Generate
// returns at its index.
func (sp Spec) Generate() (*Project, error) {
	p, err := generateFresh(*sp.cfg, sp.prof, sp.idx)
	if err != nil {
		return nil, fmt.Errorf("corpus: project %d (%s): %w", sp.idx, sp.prof.Taxon, err)
	}
	return p, nil
}

// Fold folds GenerateStage and every input Generate reads into h: the
// corpus-wide knobs and the complete per-taxon profile.
func (sp Spec) Fold(h *cache.Hasher) {
	cfg, prof := sp.cfg, sp.prof
	h.String(GenerateStage)
	h.Int(cfg.Seed)
	h.Time(cfg.Epoch)
	h.Int(int64(cfg.StartSpreadMonths))
	h.Int(int64(sp.idx))
	h.Int(int64(prof.Taxon))
	h.Int(int64(prof.DurationMonths[0])).Int(int64(prof.DurationMonths[1]))
	h.Int(int64(prof.InitialTables[0])).Int(int64(prof.InitialTables[1]))
	h.Int(int64(prof.AttrsPerTable[0])).Int(int64(prof.AttrsPerTable[1]))
	h.Int(int64(prof.PostBirthUnits[0])).Int(int64(prof.PostBirthUnits[1]))
	for _, set := range [][]ShapeWeight{prof.SchemaShapes, prof.SourceShapes} {
		h.Int(int64(len(set)))
		for _, w := range set {
			h.Int(int64(w.Shape))
			h.Float(w.Weight)
		}
	}
	h.Float(prof.LateBirthProb)
	h.Float(prof.CoupleProb)
	h.Int(int64(prof.CommitsPerActiveMonth[0])).Int(int64(prof.CommitsPerActiveMonth[1]))
	h.Int(int64(prof.FilesPerCommit[0])).Int(int64(prof.FilesPerCommit[1]))
}

// Source generates the corpus described by a Config lazily, in corpus
// order: each Next call claims the next project index under the source's
// lock and materializes the repository outside it, so concurrent callers
// (the engine's workers) generate in parallel while the corpus as a
// whole is never resident. The projects produced are bit-for-bit the
// ones Generate returns — each seeds its own rand source from the corpus
// seed and its index, independent of who generates it when. Claim hands
// out the next spec alone, for callers that decide whether to generate.
type Source struct {
	cfg   Config
	specs []Spec

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
	s := &Source{cfg: cfg}
	for _, prof := range cfg.Profiles {
		for i := 0; i < prof.Count; i++ {
			s.specs = append(s.specs, Spec{cfg: &s.cfg, prof: prof, idx: len(s.specs)})
		}
	}
	return s
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
	specs := make([]Spec, 0, (len(s.specs)+of-1)/of)
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

// Claim takes the next project's spec without generating it, with its
// source-local dense index; ok is false once the corpus is exhausted.
// Safe for concurrent use.
func (s *Source) Claim() (sp Spec, local int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= len(s.specs) {
		return Spec{}, 0, false
	}
	local = s.next
	s.next++
	return s.specs[local], local, true
}

// claimAndGenerate claims the next spec and generates it outside the
// lock: the source in the engine's indexed form. Generation runs inside
// the caller's context, so under the engine the work lands in the
// claiming task's "generate" stage timing. The returned index is the
// source-local dense position — the engine's re-sequencer requires dense
// 0-based indices — while the project itself is seeded by its global
// corpus index, so a partitioned source still generates
// globally-identical projects.
func (s *Source) claimAndGenerate(ctx context.Context) (*Project, int, bool, error) {
	sp, local, ok := s.Claim()
	if !ok {
		return nil, 0, false, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, false, err
	}
	engine.Stage(ctx, "generate")
	p, err := sp.Generate()
	if err != nil {
		return nil, 0, false, err
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
	_, err := engine.Stream(ctx, engine.SourceFunc[*Project](s.claimAndGenerate),
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
