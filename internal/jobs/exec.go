package jobs

// The production executor: runs study jobs through the streaming
// pipeline and ingest jobs through the real-project analysis path,
// renders results via the shared report sections (byte-identical to the
// CLI), memoizes whole results in the content-addressed cache, and seals
// every execution into the run ledger.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"coevo/internal/cache"
	"coevo/internal/corpus"
	"coevo/internal/engine"
	"coevo/internal/gitlog"
	"coevo/internal/history"
	"coevo/internal/obs"
	"coevo/internal/report"
	"coevo/internal/runlog"
	"coevo/internal/shard"
	"coevo/internal/study"
)

// Executor turns specs into results. One Executor serves every job the
// queue runs; its cache is the cross-job dedup plane — both the inner
// pipeline stages (parse, diff, measure, corpus generation) and the
// whole rendered result are content-addressed in it, so a duplicate
// submission from any tenant is a lookup, not an analysis.
type Executor struct {
	// Cache, when non-nil, memoizes pipeline stages and whole results.
	Cache *cache.Cache
	// Obs observes execution (nil-safe).
	Obs *obs.Observer
	// Workers bounds each job's internal analysis parallelism
	// (0 = GOMAXPROCS).
	Workers int
	// LedgerDir, when non-empty, seals one run manifest per executed job.
	LedgerDir string
}

// Run implements ExecFunc.
func (e *Executor) Run(ctx context.Context, j *Job, rep RunReport) (*Result, error) {
	key := j.Spec.Fingerprint()
	if raw, ok := e.Cache.Get(key); ok {
		var res Result
		if err := json.Unmarshal(raw, &res); err == nil {
			e.Obs.Logger().Info("jobs: result served from cache", "job", j.ID, "fingerprint", key.String())
			if rep.CacheHit != nil {
				rep.CacheHit()
			}
			if rep.Progress != nil {
				rep.Progress(res.Projects, res.Projects)
			}
			e.seal(j, &res, time.Now(), nil, nil, rep)
			res.JobID = j.ID
			return &res, nil
		}
		// A cached result that does not decode is treated as a miss and
		// recomputed; the fresh Put below overwrites it.
	}

	start := time.Now()
	metrics := engine.NewMetrics()
	var (
		res *Result
		err error
	)
	switch j.Spec.Kind {
	case KindStudy:
		res, err = e.runStudy(ctx, j, rep, metrics)
	case KindIngest:
		res, err = e.runIngest(ctx, j, rep)
	default:
		err = fmt.Errorf("jobs: unknown kind %q", j.Spec.Kind)
	}
	e.seal(j, res, start, metrics, err, rep)
	if err != nil {
		return nil, err
	}
	if raw, merr := json.Marshal(res); merr == nil {
		e.Cache.Put(key, raw)
	}
	return res, nil
}

// runStudy executes a synthetic-corpus study through the fused
// generate→analyze stream, figures accumulating online, and renders the
// same sections `coevo study` writes.
func (e *Executor) runStudy(ctx context.Context, j *Job, rep RunReport, metrics *engine.Metrics) (*Result, error) {
	spec := j.Spec.Study
	if spec.Shards > 1 {
		return e.runStudySharded(ctx, j, rep)
	}
	eopts := engine.Options{Workers: e.Workers, Obs: e.Obs}
	observers := []func(engine.Event){metrics.Observe}
	if rep.Progress != nil {
		observers = append(observers, func(ev engine.Event) {
			if ev.Scope == "analyze" && (ev.Type == engine.TaskFinished || ev.Type == engine.TaskFailed) {
				rep.Progress(ev.Done, ev.Total)
			}
		})
	}
	eopts.OnEvent = engine.Tee(observers...)

	opts := study.DefaultOptions()
	opts.Exec = eopts
	opts.Cache = e.Cache
	opts.Obs = e.Obs
	opts.History.Dialect = specDialect(spec.Dialect)

	cfg := studyCorpus(spec)
	cfg.Cache = e.Cache
	cfg.Obs = e.Obs
	src := corpus.NewSource(cfg)

	figs := study.NewFigures()
	sinks := []study.Sink{figs}
	var csvBuf bytes.Buffer
	var csvW *report.DatasetCSVWriter
	if spec.CSV {
		csvW = report.NewDatasetCSVWriter(&csvBuf)
		sinks = append(sinks, csvW)
	}

	sum, err := study.StreamCorpus(ctx, src, study.MultiSink(sinks...), opts)
	if err != nil {
		return nil, err
	}
	if csvW != nil {
		if err := csvW.Close(); err != nil {
			return nil, err
		}
	}
	return studyResult(j, figs, csvBuf.String(), sum.Projects, len(sum.Failures))
}

// runStudySharded executes a study spec as an in-process partition-and-
// merge loop: each shard streams its residue class of the corpus through
// a shard.Worker into a sealed PartialFigures, and the partials fold in
// shard order — the same protocol a multi-process run speaks, minus the
// network. Because every figure is an associative fold over global
// corpus indices, the rendered sections are byte-identical to the
// unsharded path, and the spec fingerprint treats both as one result.
func (e *Executor) runStudySharded(ctx context.Context, j *Job, rep RunReport) (*Result, error) {
	spec := j.Spec.Study
	worker := &shard.Worker{Cache: e.Cache, Obs: e.Obs, Workers: e.Workers}

	// The whole-corpus size, for progress reporting across shards.
	total := corpus.NewSource(studyCorpus(spec)).Len()

	resps := make([]*shard.RunResponse, spec.Shards)
	projects := 0
	for k := range resps {
		resp, err := worker.Run(ctx, &shard.RunRequest{
			Seed: spec.Seed, PerTaxon: spec.PerTaxon, Dialect: spec.Dialect,
			Shard: k, Of: spec.Shards, CSV: spec.CSV,
		})
		if err != nil {
			return nil, err
		}
		resps[k] = resp
		projects += resp.Projects
		if rep.Progress != nil {
			rep.Progress(projects, total)
		}
	}
	merged, err := shard.Merge(resps)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	var csv strings.Builder
	if spec.CSV {
		if err := merged.WriteCSV(&csv); err != nil {
			return nil, err
		}
	}
	return studyResult(j, merged.Figures, csv.String(), merged.Projects, len(merged.Failures))
}

// studyCorpus is a study spec's corpus: the paper's profiles, rescaled
// per taxon when the spec asks.
func studyCorpus(spec *StudySpec) corpus.Config {
	cfg := corpus.DefaultConfig(spec.Seed)
	if spec.PerTaxon > 0 {
		for i := range cfg.Profiles {
			cfg.Profiles[i].Count = spec.PerTaxon
		}
	}
	return cfg
}

// studyResult renders a finished study's figures — the same sections
// `coevo study` writes, plus the CSV export when the spec asked for it —
// into the job's result.
func studyResult(j *Job, figs *study.Figures, csv string, projects, failed int) (*Result, error) {
	sections, err := renderSections(report.FiguresArtifacts(figs, j.Spec.Study.Seed))
	if err != nil {
		return nil, err
	}
	if j.Spec.Study.CSV {
		sections["dataset.csv"] = csv
	}
	return &Result{
		JobID: j.ID, Kind: KindStudy, Sections: sections,
		Projects: projects, FailedProjects: failed,
		ParseHealth: figs.Health.Summary(),
	}, nil
}

// runIngest analyzes one real project from its submitted git log and
// dated DDL versions — the `coevo ingest` pipeline as a service job.
func (e *Executor) runIngest(ctx context.Context, j *Job, rep RunReport) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spec := j.Spec.Ingest
	entries, err := gitlog.Parse(strings.NewReader(spec.GitLog))
	if err != nil {
		return nil, err
	}
	ph, err := history.ProjectHistoryFromLog(entries)
	if err != nil {
		return nil, err
	}
	versions, err := datedVersions(spec.DDLVersions)
	if err != nil {
		return nil, err
	}

	opts := study.DefaultOptions()
	opts.Cache = e.Cache
	opts.Obs = e.Obs
	opts.History.Dialect = specDialect(spec.Dialect)
	sh, err := history.SchemaHistoryFromContents("schema.sql", versions, opts.History)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := study.AnalyzeHistories(j.Spec.Label(), "schema.sql", sh, ph, opts)
	if err != nil {
		return nil, err
	}
	if rep.Progress != nil {
		rep.Progress(1, 1)
	}

	var buf bytes.Buffer
	if err := report.CaseStudy(&buf, res); err != nil {
		return nil, err
	}
	health := study.NewParseHealthAccumulator()
	health.Add(res)
	return &Result{
		JobID: j.ID, Kind: KindIngest,
		Sections:    map[string]string{"casestudy.txt": buf.String()},
		Projects:    1,
		ParseHealth: health.Summary(),
	}, nil
}

// renderSections materializes every shared study section into a named
// string — the fetchable counterpart of the CLI's stdout and -out files,
// produced by the identical rendering path.
func renderSections(a *report.StudyArtifacts) (map[string]string, error) {
	sections := make(map[string]string)
	for _, s := range report.StudySections(a) {
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			return nil, fmt.Errorf("jobs: render %s: %w", s.Name, err)
		}
		sections[s.Name] = buf.String()
	}
	return sections, nil
}

// parseVersionName parses a DDL version key — "YYYY-MM-DD" or
// "YYYY-MM-DD.N" for multiple versions on one day — into its date and
// sequence number. Validate and the executor share it so a spec that
// validates always executes.
func parseVersionName(name string) (time.Time, int, error) {
	datePart, seq := name, 0
	if dot := strings.IndexByte(name, '.'); dot > 0 {
		datePart = name[:dot]
		if _, err := fmt.Sscanf(name[dot+1:], "%d", &seq); err != nil || seq < 0 {
			return time.Time{}, 0, fmt.Errorf("jobs: ddl version %q: disambiguator must be a non-negative number (YYYY-MM-DD.N)", name)
		}
	}
	when, err := time.Parse("2006-01-02", datePart)
	if err != nil {
		return time.Time{}, 0, fmt.Errorf("jobs: ddl version %q: name must start with YYYY-MM-DD: %w", name, err)
	}
	return when, seq, nil
}

// datedVersions orders the submitted DDL versions by (date, sequence)
// and spaces same-day versions a minute apart — exactly how the CLI's
// ingest reads a directory of dated files.
func datedVersions(byName map[string]string) ([]history.DatedContent, error) {
	type dated struct {
		name string
		when time.Time
		seq  int
	}
	files := make([]dated, 0, len(byName))
	for name := range byName {
		when, seq, err := parseVersionName(name)
		if err != nil {
			return nil, err
		}
		files = append(files, dated{name: name, when: when, seq: seq})
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].when.Equal(files[j].when) {
			return files[i].when.Before(files[j].when)
		}
		return files[i].seq < files[j].seq
	})
	versions := make([]history.DatedContent, 0, len(files))
	for i, f := range files {
		versions = append(versions, history.DatedContent{
			When:    f.when.Add(time.Duration(i) * time.Minute),
			Content: []byte(byName[f.name]),
		})
	}
	return versions, nil
}

// seal records the execution in the run ledger (when configured) and
// reports the manifest id back to the queue. Every executed job gets a
// manifest — successes, failures, interruptions and cache-served
// duplicates alike — so /runs is the complete service history.
func (e *Executor) seal(j *Job, res *Result, start time.Time, metrics *engine.Metrics, runErr error, rep RunReport) {
	if e.LedgerDir == "" {
		return
	}
	sealStart := time.Now()
	before := e.Cache.Stats()
	m := runlog.NewManifest("job", start)
	m.JobID = j.ID
	m.Tenant = j.Tenant
	m.TraceID = j.TraceID
	m.Workers = e.Workers
	m.Options = specOptions(&j.Spec)
	if res != nil {
		m.Projects = res.Projects
		m.Failed = res.FailedProjects
	}
	if metrics != nil {
		s := metrics.Snapshot()
		m.P50Seconds = s.P50.Seconds()
		m.P95Seconds = s.P95.Seconds()
		m.MaxSeconds = s.Max.Seconds()
		m.ThroughputPerSec = s.Throughput
		if len(s.StageTotals) > 0 {
			m.StageSeconds = make(map[string]float64, len(s.StageTotals))
			for stage, d := range s.StageTotals {
				m.StageSeconds[stage] = d.Seconds()
			}
		}
	}
	// The cache is service-wide, so the numbers are cumulative across
	// jobs: the manifest records the state at seal time.
	m.Cache = runlog.NewCacheStats(before)
	m.Finish(time.Now(), runErr)
	if _, err := runlog.Write(e.LedgerDir, m); err != nil {
		e.Obs.Logger().Warn("jobs: run manifest not recorded", "job", j.ID, "err", err)
		return
	}
	// The closing leg of the job's trace: one lane-0 span covering the
	// seal itself, so the exported timeline reads
	// submit → queue-wait → job-run (stages inside) → sealed.
	if e.Obs.Tracing() {
		e.Obs.RecordSpan("sealed", 0, sealStart, time.Since(sealStart),
			"job", j.ID, "run", m.ID, "trace_id", j.TraceID)
	}
	if rep.RunID != nil {
		rep.RunID(m.ID)
	}
}

// specOptions projects a spec onto the manifest's options map — the job
// counterpart of the CLI's recorded flags.
func specOptions(s *Spec) map[string]string {
	opts := map[string]string{"kind": s.Kind}
	if s.Name != "" {
		opts["name"] = s.Name
	}
	switch s.Kind {
	case KindStudy:
		opts["seed"] = fmt.Sprint(s.Study.Seed)
		if s.Study.PerTaxon > 0 {
			opts["per-taxon"] = fmt.Sprint(s.Study.PerTaxon)
		}
		if s.Study.CSV {
			opts["csv"] = "true"
		}
		if s.Study.Dialect != "" {
			opts["dialect"] = specDialect(s.Study.Dialect).String()
		}
		if s.Study.Shards > 1 {
			opts["shards"] = fmt.Sprint(s.Study.Shards)
		}
	case KindIngest:
		opts["ddl-versions"] = fmt.Sprint(len(s.Ingest.DDLVersions))
		if s.Ingest.Dialect != "" {
			opts["dialect"] = specDialect(s.Ingest.Dialect).String()
		}
	}
	return opts
}
