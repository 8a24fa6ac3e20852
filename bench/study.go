package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"coevo/internal/cache"
	"coevo/internal/corpus"
	"coevo/internal/obs"
	"coevo/internal/report"
	"coevo/internal/shard"
	"coevo/internal/study"
)

// goldenFiguresSHA256 is the figures hash of the default seed at the
// default scale. It changes only when measurement or rendering changes
// on purpose, like the repository's determinism goldens.
const goldenFiguresSHA256 = "1e7ff9892d87665887418a95b15b4246d941ac4e776157b3d420e864800a494f"

// corpusConfig is the study corpus of a run: the paper's six taxon
// profiles, each scaled to perTaxon projects.
func corpusConfig(seed int64, perTaxon, workers int) corpus.Config {
	cfg := corpus.DefaultConfig(seed)
	for i := range cfg.Profiles {
		cfg.Profiles[i].Count = perTaxon
	}
	cfg.Exec.Workers = workers
	return cfg
}

// streamStudy is one `coevo study` run: StreamCorpus into fresh Figures,
// then every StudySections entry rendered into a hash. c is the run's
// cache (nil: none, the CLI default); tr, when set, records the run.
func streamStudy(ctx context.Context, cfg *config, c *cache.Cache, tr *layerTrace) (*repResult, error) {
	ccfg := corpusConfig(cfg.Seed, cfg.PerTaxon, cfg.Workers)
	ccfg.Cache = c
	opts := study.DefaultOptions()
	opts.Exec.Workers = cfg.Workers
	opts.Cache = c
	figs := study.NewFigures()
	var sink study.Sink = figs
	var before cache.Stats
	if tr != nil {
		ccfg.Obs, opts.Obs = tr.obs, tr.obs
		opts.Exec.OnEvent = tr.observeEngine
		sink = tr.foldSink(figs)
		before = c.Stats()
	}

	start := time.Now()
	sum, err := study.StreamCorpus(ctx, corpus.NewSource(ccfg), sink, opts)
	if err != nil {
		return nil, err
	}
	streamed := time.Since(start)
	hash, err := renderFigures(figs, cfg.Seed, recordSections(tr))
	if err != nil {
		return nil, err
	}
	latency := time.Since(start)
	if tr != nil {
		tr.record("run.stream", start, streamed)
		tr.workers = cfg.Workers
		tr.cacheDelta(before, c.Stats(), cache.Stats{})
	}
	return &repResult{
		latency:    latency,
		throughput: float64(sum.Projects) / streamed.Seconds(),
		units:      sum.Projects + len(sum.Failures),
		failed:     len(sum.Failures),
		hash:       hash,
		notes:      map[string]float64{"stream_ms": ms(streamed)},
	}, nil
}

// renderFigures renders every study section, in presentation order, into
// one sha256 (section name, NUL, content, NUL per section). A non-nil
// record is told how long each section took.
func renderFigures(figs *study.Figures, seed int64, record func(section string, start time.Time, d time.Duration)) (string, error) {
	h := sha256.New()
	for _, s := range report.StudySections(report.FiguresArtifacts(figs, seed)) {
		start := time.Now()
		io.WriteString(h, s.Name+"\x00") //nolint:errcheck // hash writes cannot fail
		if err := s.Write(h); err != nil {
			return "", fmt.Errorf("render %s: %w", s.Name, err)
		}
		h.Write([]byte{0})
		if record != nil {
			record(s.Name, start, time.Since(start))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sectionLayer names the layer a section's rendering is charged to: the
// §7 statistics are computed while their section renders.
func sectionLayer(section string) string {
	if section == "section7.txt" {
		return "stats.section7"
	}
	return "report.render"
}

// recordSections returns the renderFigures hook of a traced run (nil
// when untraced).
func recordSections(tr *layerTrace) func(string, time.Time, time.Duration) {
	if tr == nil {
		return nil
	}
	return func(section string, start time.Time, d time.Duration) {
		tr.record("run."+sectionLayer(section), start, d, "section", section)
	}
}

// studyInst is a set-up study workload; rep differs per workload.
type studyInst struct {
	cfg *config
	tr  *layerTrace
	// reference is the figures hash of the cold, uncached run made during
	// set-up (study-warm, shard-remote); every repetition must match it.
	reference string
	last      string
	dir       string
	run       func(ctx context.Context) (*repResult, error)
	closers   []func() error
}

func (s *studyInst) rep(ctx context.Context) (*repResult, error) {
	r, err := s.run(ctx)
	if err != nil {
		return nil, err
	}
	s.last = r.hash
	return r, nil
}

func (s *studyInst) check(context.Context) error {
	if s.reference != "" && s.last != s.reference {
		return fmt.Errorf("figures hash %s differs from the cold run's %s", s.last, s.reference)
	}
	return nil
}

func (s *studyInst) replay(ctx context.Context) error {
	hash, err := s.tr.replayCorpus(ctx, corpusConfig(s.cfg.Seed, s.cfg.PerTaxon, 1), s.cfg.Seed)
	if err != nil {
		return err
	}
	if hash != s.last {
		return fmt.Errorf("replayed figures hash %s differs from the measured %s", hash, s.last)
	}
	return nil
}

func (s *studyInst) close() error {
	var first error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}

// newStudyInst prepares an instance with a private scratch directory.
func newStudyInst(cfg *config, tr *layerTrace) (*studyInst, error) {
	dir, err := os.MkdirTemp(cfg.WorkDir, "study-")
	if err != nil {
		return nil, err
	}
	s := &studyInst{cfg: cfg, tr: tr, dir: dir}
	s.closers = append(s.closers, func() error { return os.RemoveAll(dir) })
	return s, nil
}

// fillCache runs the cold study once into a disk cache at dir, returning
// the cache and the figures hash of that cold run.
func fillCache(ctx context.Context, cfg *config, dir string) (*cache.Cache, string, error) {
	c, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		return nil, "", err
	}
	r, err := streamStudy(ctx, cfg, c, nil)
	if err != nil {
		return nil, "", err
	}
	return c, r.hash, nil
}

// setupStudyCold: the CLI default, no cache. Set-up is one warm-up run,
// so the process's heap and pools reach their steady state before timing.
func setupStudyCold(ctx context.Context, cfg *config, tr *layerTrace) (instance, error) {
	s, err := newStudyInst(cfg, tr)
	if err != nil {
		return nil, err
	}
	if _, err := streamStudy(ctx, cfg, nil, nil); err != nil {
		s.close() //nolint:errcheck // already failing
		return nil, err
	}
	s.run = func(ctx context.Context) (*repResult, error) { return streamStudy(ctx, cfg, nil, tr) }
	return s, nil
}

// setupStudyWarm fills an on-disk cache with a cold run; each repetition
// is the second `coevo study -cache-dir` run, on a fresh Cache over it.
func setupStudyWarm(ctx context.Context, cfg *config, tr *layerTrace) (instance, error) {
	s, err := newStudyInst(cfg, tr)
	if err != nil {
		return nil, err
	}
	dir := s.dir + "/cache"
	if _, s.reference, err = fillCache(ctx, cfg, dir); err != nil {
		s.close() //nolint:errcheck // already failing
		return nil, err
	}
	s.run = func(ctx context.Context) (*repResult, error) {
		c, err := cache.New(cache.Options{Dir: dir})
		if err != nil {
			return nil, err
		}
		return streamStudy(ctx, cfg, c, tr)
	}
	return s, nil
}

// shardWorkers is the shard-remote fan-out; each worker analyzes with
// one engine worker, so together they use two CPUs.
const shardWorkers = 2

// setupShardRemote fills a coordinator cache with a cold run, serves it
// as a remote tier, and starts two in-process shard workers on loopback
// HTTP. Each repetition is one shard.Run; the workers start with empty
// local caches every time.
func setupShardRemote(ctx context.Context, cfg *config, tr *layerTrace) (instance, error) {
	s, err := newStudyInst(cfg, tr)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (instance, error) {
		s.close() //nolint:errcheck // already failing
		return nil, err
	}
	coord, ref, err := fillCache(ctx, cfg, s.dir+"/cache")
	if err != nil {
		return fail(err)
	}
	s.reference = ref
	serve := func(route string, h http.Handler, o *obs.Observer) (*obs.Server, error) {
		srv, err := obs.Serve(obs.ServeOptions{Addr: "127.0.0.1:0", Registry: o.Metrics(), Handlers: map[string]http.Handler{route: h}})
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, func() error {
			sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			return srv.Shutdown(sctx)
		})
		srv.SetReady(true)
		return srv, nil
	}
	var o *obs.Observer
	tier := cache.TierHandler(coord)
	if tr != nil {
		o = tr.obs
		tier = tr.handler("cache.tier", tier)
	}
	coordSrv, err := serve("/cache/", tier, o)
	if err != nil {
		return fail(err)
	}
	var addrs []string
	for i := 0; i < shardWorkers; i++ {
		w := &shard.Worker{Obs: o, Workers: 1}
		h := w.Handler()
		if tr != nil {
			h = tr.handler("shard.worker", h)
		}
		srv, err := serve("/shard/run", h, o)
		if err != nil {
			return fail(err)
		}
		addrs = append(addrs, srv.URL())
	}
	req := shard.RunRequest{Seed: cfg.Seed, PerTaxon: cfg.PerTaxon, CacheURL: coordSrv.URL() + "/cache"}
	s.run = func(ctx context.Context) (*repResult, error) {
		var before cache.Stats
		if tr != nil {
			before = coord.Stats()
		}
		start := time.Now()
		res, err := shard.Run(ctx, addrs, req)
		if err != nil {
			return nil, err
		}
		ran := time.Since(start)
		hash, err := renderFigures(res.Figures, cfg.Seed, recordSections(tr))
		if err != nil {
			return nil, err
		}
		latency := time.Since(start)
		if tr != nil {
			tr.record("run.shard", start, ran)
			tr.workers = shardWorkers
			tr.shardResult(res)
			tr.cacheDelta(before, coord.Stats(), workerCacheStats(res))
		}
		return &repResult{
			latency:    latency,
			throughput: float64(res.Projects) / ran.Seconds(),
			units:      res.Projects + len(res.Failures),
			failed:     len(res.Failures),
			hash:       hash,
			notes:      map[string]float64{"stream_ms": ms(ran)},
		}, nil
	}
	return s, nil
}

// workerCacheStats converts the workers' summed cache deltas back to
// cache.Stats.
func workerCacheStats(res *shard.Result) cache.Stats {
	if res.Cache == nil {
		return cache.Stats{}
	}
	c := res.Cache
	return cache.Stats{
		Hits: c.Hits, Misses: c.Misses, MemoryHits: c.MemoryHits, DiskHits: c.DiskHits,
		RemoteHits: c.RemoteHits, RemoteMisses: c.RemoteMisses, Puts: c.Puts,
		BytesRead: c.BytesRead, BytesWritten: c.BytesWritten,
		RemoteBytesRead: c.RemoteBytesRead, RemoteBytesWritten: c.RemoteBytesWritten,
	}
}
