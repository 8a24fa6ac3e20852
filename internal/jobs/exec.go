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
	"coevo/internal/study"
)

// Executor turns specs into results. One Executor serves every job the
// queue runs; its cache is the cross-job dedup plane — per-project
// measure bundles, the project entries that find a generated project's
// bundle by its generator inputs, and the whole rendered result are
// content-addressed in it, so a duplicate submission from any tenant is
// a lookup, not an analysis.
type Executor struct {
	// Cache, when non-nil, memoizes per-project results (bundles and
	// project entries) and whole job results.
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
	versions, err := ingestVersions(spec)
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

// ingestVersions puts the submitted DDL versions in commit order
// (history.ParseVersionNames), exactly as the CLI's ingest reads a
// directory of dated files.
func ingestVersions(spec *IngestSpec) ([]history.DatedContent, error) {
	order, err := history.ParseVersionNames(spec.versionNames())
	if err != nil {
		return nil, err
	}
	versions := make([]history.DatedContent, len(order))
	for i, v := range order {
		versions[i] = history.DatedContent{When: v.When, Content: []byte(spec.DDLVersions[v.Name])}
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
		m.RecordEngine(metrics.Snapshot())
	}
	// The cache is service-wide, so the numbers are cumulative across
	// jobs: the manifest records the state at seal time.
	m.Cache = e.Cache.Stats().Recorded()
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
	case KindIngest:
		opts["ddl-versions"] = fmt.Sprint(len(s.Ingest.DDLVersions))
		if s.Ingest.Dialect != "" {
			opts["dialect"] = specDialect(s.Ingest.Dialect).String()
		}
	}
	return opts
}
