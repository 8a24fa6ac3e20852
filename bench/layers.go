package main

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coevo/internal/cache"
	"coevo/internal/corpus"
	"coevo/internal/engine"
	"coevo/internal/gitlog"
	"coevo/internal/history"
	"coevo/internal/jobs"
	"coevo/internal/obs"
	"coevo/internal/report"
	"coevo/internal/schema"
	"coevo/internal/schemadiff"
	"coevo/internal/shard"
	"coevo/internal/sqlddl"
	"coevo/internal/study"
)

// layerTrace collects one traced run: the engine's per-task stage
// timings through engine.Options.OnEvent, timers around every public call
// the bench makes (fold sink, section writes, shard.Run, worker and tier
// handlers, HTTP submits, the queue's Exec), cache counter deltas, and the
// per-layer costs of the untimed replay. Spans stay in memory on an
// obs.Observer and are exported once, as one Chrome trace.
//
// Timer names: "run.*", "stage.*", "engine.busy", "shard.*", "cache.tier"
// and "jobs.*" are the measured run; bare layer names (sqlddl.parse, ...)
// are the replay.
type layerTrace struct {
	obs *obs.Observer
	// workers is the run's analysis parallelism: the engine workers of a
	// study, or shard-remote's one worker per shard.
	workers int
	// overhead is the traced repetition's latency over the untraced median,
	// minus one.
	overhead float64

	mu     sync.Mutex
	timers map[string]time.Duration
	counts map[string]float64
	peaks  map[string]time.Duration
	execs  map[string]execSpan // jobs-mixed: Exec call per job id
	rows   []attrRow
	busy   float64
	idle   time.Duration
}

// execSpan is one job's Exec call as the wrapped ExecFunc saw it.
type execSpan struct {
	start, end time.Time
	kind       string
}

// attrRow is one row of a traced run's time attribution. Rows of a group
// add up to the group's total: workers × stream wall time for the study
// workloads, the summed job latencies for jobs-mixed.
type attrRow struct {
	Group   string  `json:"group"`
	Layer   string  `json:"layer"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

func newLayerTrace() *layerTrace {
	return &layerTrace{
		obs:    obs.New(obs.Options{Trace: true, FlightEvents: obs.DefaultFlightEvents}),
		timers: map[string]time.Duration{},
		counts: map[string]float64{},
		peaks:  map[string]time.Duration{},
		execs:  map[string]execSpan{},
	}
}

// add charges d to the named timer.
func (t *layerTrace) add(name string, d time.Duration) {
	t.mu.Lock()
	t.timers[name] += d
	t.peaks[name] = max(t.peaks[name], d)
	t.mu.Unlock()
}

// count adds v to the named counter.
func (t *layerTrace) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// record charges d to the named timer and records a span for it.
func (t *layerTrace) record(name string, start time.Time, d time.Duration, kv ...string) {
	t.add(name, d)
	t.obs.RecordSpan("bench "+name, 0, start, d, kv...)
}

// timed runs f, charging its duration to the named replay layer.
func (t *layerTrace) timed(name string, f func() error) error {
	start := time.Now()
	err := f()
	t.add(name, time.Since(start))
	return err
}

// observeEngine is the engine.Options.OnEvent hook: it sums every
// finished task's wall time and stage timings.
func (t *layerTrace) observeEngine(e engine.Event) {
	if e.Type != engine.TaskFinished && e.Type != engine.TaskFailed {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.timers["engine.busy"] += e.Elapsed
	for _, st := range e.Stages {
		t.timers["stage."+st.Name] += st.Elapsed
	}
}

// foldSink wraps figs so the time spent folding results is measured.
func (t *layerTrace) foldSink(figs *study.Figures) study.Sink { return &timedSink{t: t, figs: figs} }

// timedSink is an IndexedSink over Figures that times each fold. The
// engine serializes sink calls, so the sum needs no lock of its own.
type timedSink struct {
	t    *layerTrace
	figs *study.Figures
}

func (s *timedSink) Add(p *study.ProjectResult) error { return s.AddAt(int64(s.figs.Count()), p) }

func (s *timedSink) AddAt(seq int64, p *study.ProjectResult) error {
	start := time.Now()
	err := s.figs.AddAt(seq, p)
	s.t.add("run.fold", time.Since(start))
	return err
}

// handler wraps an HTTP handler with a timer and a span per request.
func (t *layerTrace) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		t.add(name, d)
		t.count(name+".requests", 1)
		if name == "shard.worker" {
			t.obs.RecordSpan("bench "+name, 0, start, d)
		}
	})
}

// wrapExec wraps the queue's ExecFunc, timing each job's execution by
// kind; a job whose whole result came from the cache counts as "dup".
func (t *layerTrace) wrapExec(run jobs.ExecFunc) jobs.ExecFunc {
	return func(ctx context.Context, j *jobs.Job, rep jobs.RunReport) (*jobs.Result, error) {
		var hit atomic.Bool
		inner := rep.CacheHit
		rep.CacheHit = func() {
			hit.Store(true)
			if inner != nil {
				inner()
			}
		}
		start := time.Now()
		res, err := run(ctx, j, rep)
		end := time.Now()
		kind := j.Spec.Kind
		if hit.Load() {
			kind = kindDup
		}
		t.record("jobs.exec_"+kind, start, end.Sub(start), "job", j.ID)
		t.mu.Lock()
		t.execs[j.ID] = execSpan{start: start, end: end, kind: kind}
		t.mu.Unlock()
		return res, err
	}
}

// cacheDelta records the traced run's cache counters. Lookups come from
// the caches the pipeline asked — the run's own, or for a sharded run
// the workers' summed local caches (lookups) — and disk reads from the
// cache owning the disk store (before/after).
func (t *layerTrace) cacheDelta(before, after, lookups cache.Stats) {
	if lookups == (cache.Stats{}) {
		lookups = cache.Stats{
			Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
			RemoteHits: after.RemoteHits - before.RemoteHits, RemoteMisses: after.RemoteMisses - before.RemoteMisses,
			RemoteBytesRead: after.RemoteBytesRead - before.RemoteBytesRead,
		}
	}
	t.count("cache.hits", float64(lookups.Hits))
	t.count("cache.misses", float64(lookups.Misses))
	t.count("cache.remote_gets", float64(lookups.RemoteHits+lookups.RemoteMisses))
	t.count("cache.remote_read_mib", float64(lookups.RemoteBytesRead)/(1<<20))
	t.count("cache.disk_read_mib", float64(after.BytesRead-before.BytesRead)/(1<<20))
}

// shardResult records the engine stage seconds the workers reported;
// their stages add up to the workers' task time.
func (t *layerTrace) shardResult(res *shard.Result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for stage, s := range res.StageSeconds {
		d := time.Duration(s * float64(time.Second))
		t.timers["stage."+stage] += d
		t.timers["engine.busy"] += d
	}
}

// jobsRun attributes the summed job latencies of a traced schedule to
// the layers each job passed through, in order: generator lag, the HTTP
// submit, queue wait, execution by kind, and the remainder (state and
// result persistence around Exec).
func (t *layerTrace) jobsRun(subs []submission, workers int, window time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	parts := map[string]time.Duration{}
	n := map[string]int{}
	var total, exec time.Duration
	var latencies []float64
	for _, s := range subs {
		if s.job == nil || s.job.State != jobs.StateDone {
			continue
		}
		e, ok := t.execs[s.job.ID]
		if !ok {
			continue
		}
		lat := s.job.Finished.Sub(s.due)
		latencies = append(latencies, ms(lat))
		total += lat
		for layer, d := range map[string]time.Duration{
			"generator.lag":       s.sent.Sub(s.due),
			"obs.http_submit":     s.job.Submitted.Sub(s.sent),
			"jobs.queue_wait":     s.job.Started.Sub(s.job.Submitted),
			"jobs.exec_" + e.kind: e.end.Sub(e.start),
		} {
			parts[layer] += d
			n[layer]++
		}
		exec += e.end.Sub(e.start)
	}
	var attributed time.Duration
	for _, layer := range []string{"generator.lag", "obs.http_submit", "jobs.queue_wait", "jobs.exec_ingest", "jobs.exec_dup", "jobs.exec_study"} {
		d := parts[layer]
		attributed += d
		t.rows = append(t.rows, attrRow{Group: "job latency", Layer: layer, Seconds: d.Seconds(), Share: share(d, total)})
		t.counts[layer+"_ms"] = ms(d) / float64(max(n[layer], 1))
	}
	t.idle = total - attributed
	t.rows = append(t.rows, attrRow{Group: "job latency", Layer: "unattributed", Seconds: t.idle.Seconds(), Share: share(t.idle, total)})
	t.busy = exec.Seconds() / (float64(workers) * window.Seconds())
	t.counts["jobs.p50_ms"] = median(latencies)
	t.counts["jobs.p95_ms"] = percentile(latencies, 95)
	t.counts["jobs.p99_ms"] = percentile(latencies, 99)
	t.counts["jobs.samples"] = float64(len(latencies))
}

func share(d, total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return float64(d) / float64(total)
}

// replayLayers are the layers the replay splits the engine's "extract"
// stage into, in pipeline order.
var replayLayers = []string{"vcs.walk", "history.extract", "sqlddl.parse", "schema.build", "schemadiff.diff"}

// replayCorpus re-runs every layer of the study pipeline serially over
// the corpus cfg describes — generation, the vcs walk, history
// extraction, parse, build, diff, measure, fold, the partial-figures
// codec and every section — timing each layer on its own. It returns the
// hash of the sections it renders, which must equal the measured run's.
func (t *layerTrace) replayCorpus(ctx context.Context, cfg corpus.Config, seed int64) (string, error) {
	cfg.Cache, cfg.Obs = nil, nil
	src := corpus.NewSource(cfg)
	figs := study.NewFigures()
	opts := study.DefaultOptions()
	for i := 0; ; i++ {
		var p *corpus.Project
		if err := t.timed("corpus.generate", func() (err error) { p, err = src.Next(ctx); return err }); err != nil {
			return "", err
		}
		if p == nil {
			break
		}
		t.count("corpus.projects", 1)
		t.count("vcs.commits", float64(p.Repo.CommitCount()))
		res, err := t.replayProject(p, opts)
		if err != nil {
			return "", err
		}
		if err := t.timed("study.fold", func() error { return figs.AddAt(int64(i), res) }); err != nil {
			return "", err
		}
	}
	merged := study.NewFigures()
	if err := t.timed("study.codec", func() error {
		part, err := study.DecodePartialFigures(figs.EncodePartial())
		if err != nil {
			return err
		}
		return merged.Merge(part)
	}); err != nil {
		return "", err
	}
	return renderFigures(merged, seed, func(section string, _ time.Time, d time.Duration) {
		t.add(sectionLayer(section), d)
	})
}

// replayProject times one project's walk, history extraction, parse,
// build, diff and measure.
func (t *layerTrace) replayProject(p *corpus.Project, opts study.Options) (*study.ProjectResult, error) {
	start := time.Now()
	fvs := p.Repo.FileVersions(p.DDLPath)
	t.add("vcs.walk", time.Since(start))
	var ph *history.ProjectHistory
	if err := t.timed("history.extract", func() (err error) { ph, err = history.ExtractProjectHistory(p.Repo); return err }); err != nil {
		return nil, err
	}
	contents := make([][]byte, len(fvs))
	for i, fv := range fvs {
		if !fv.Deleted {
			contents[i] = fv.Content
		}
	}
	t.replayVersions(contents, opts.History.Dialect)
	// The measure layer's input, built untimed: parse and diff were timed
	// above.
	sh, err := history.ExtractSchemaHistoryFromVersions(p.DDLPath, fvs, opts.History)
	if err != nil {
		return nil, err
	}
	var res *study.ProjectResult
	if err := t.timed("study.measure", func() (err error) {
		res, err = study.AnalyzeHistories(p.Repo.Name(), p.DDLPath, sh, ph, opts)
		return err
	}); err != nil {
		return nil, err
	}
	intended := p.Taxon
	res.IntendedTaxon = &intended
	return res, nil
}

// replayVersions parses and builds every version of one DDL file (nil
// content: the file was deleted) and diffs the sequence, timing each
// layer.
func (t *layerTrace) replayVersions(contents [][]byte, dialect sqlddl.Dialect) {
	schemas := make([]*schema.Schema, 0, len(contents)+1)
	schemas = append(schemas, schema.New())
	var parse, build time.Duration
	statements := 0
	for _, c := range contents {
		if c == nil {
			schemas = append(schemas, schema.New())
			continue
		}
		start := time.Now()
		script, _, release := sqlddl.ParseWithDiagnosticsPooled(string(c), dialect)
		mid := time.Now()
		s, _ := schema.BuildDialect(script)
		parse += mid.Sub(start)
		build += time.Since(mid)
		statements += script.Stats.Attempted
		release()
		schemas = append(schemas, s)
	}
	start := time.Now()
	deltas := schemadiff.Sequence(schemas)
	t.add("schemadiff.diff", time.Since(start))
	t.add("sqlddl.parse", parse)
	t.add("schema.build", build)
	t.count("sqlddl.versions", float64(len(contents)))
	t.count("sqlddl.statements", float64(statements))
	t.count("schemadiff.deltas", float64(len(deltas)))
}

// replayIngest times the ingest path's layers for one payload: git-log
// parsing, history construction from the log, the schema history replay
// (vcs commits, walk, parse, build, diff), measure and the case study.
func (t *layerTrace) replayIngest(spec *jobs.Spec) error {
	var entries []gitlog.Entry
	if err := t.timed("gitlog.parse", func() (err error) {
		entries, err = gitlog.Parse(strings.NewReader(spec.Ingest.GitLog))
		return err
	}); err != nil {
		return err
	}
	var ph *history.ProjectHistory
	if err := t.timed("history.extract", func() (err error) { ph, err = history.ProjectHistoryFromLog(entries); return err }); err != nil {
		return err
	}
	versions := datedVersions(spec.Ingest.DDLVersions)
	opts := study.DefaultOptions()
	var sh *history.SchemaHistory
	if err := t.timed("history.ingest", func() (err error) {
		sh, err = history.SchemaHistoryFromContents("schema.sql", versions, opts.History)
		return err
	}); err != nil {
		return err
	}
	contents := make([][]byte, len(versions))
	for i, v := range versions {
		contents[i] = v.Content
	}
	t.replayVersions(contents, opts.History.Dialect)
	var res *study.ProjectResult
	if err := t.timed("study.measure", func() (err error) {
		res, err = study.AnalyzeHistories(spec.Label(), "schema.sql", sh, ph, opts)
		return err
	}); err != nil {
		return err
	}
	t.count("corpus.projects", 1)
	t.count("vcs.commits", float64(len(entries)))
	return t.timed("report.casestudy", func() error { return report.CaseStudy(&bytes.Buffer{}, res) })
}

// summarize turns the trace into the per-layer metrics and, for the study
// workloads, the attribution of workers × stream wall time.
func (t *layerTrace) summarize() (map[string]float64, []attrRow) {
	t.mu.Lock()
	defer t.mu.Unlock()
	secs := func(name string) float64 { return t.timers[name].Seconds() }
	if wall := t.timers["run.stream"] + t.timers["run.shard"]; wall > 0 {
		t.attributeStream(wall)
	}
	m := map[string]float64{
		"engine.busy_ratio":      t.busy,
		"unattributed_s":         t.idle.Seconds(),
		"tracing.overhead_ratio": t.overhead,
	}
	for _, name := range []string{
		"corpus.generate", "vcs.walk", "history.extract", "sqlddl.parse", "schema.build", "schemadiff.diff",
		"study.measure", "study.fold", "study.codec", "stats.section7", "report.render",
		"gitlog.parse", "history.ingest", "report.casestudy",
	} {
		m[name+"_s"] = secs(name)
	}
	for _, name := range []string{
		"corpus.projects", "vcs.commits", "sqlddl.versions", "sqlddl.statements", "schemadiff.deltas",
		"cache.hits", "cache.misses", "cache.disk_read_mib", "cache.remote_gets", "cache.remote_read_mib",
		"jobs.dedup_hits", "jobs.rejected",
	} {
		m[name] = t.counts[name]
	}
	// Measured-run timers and counters the result line does not print but a
	// results file keeps.
	for name, d := range t.timers {
		for _, prefix := range []string{"run.", "stage.", "shard.", "cache.tier"} {
			if strings.HasPrefix(name, prefix) {
				m[name+"_s"] = d.Seconds()
			}
		}
	}
	for name, v := range t.counts {
		if _, ok := m[name]; !ok {
			m[name] = v
		}
	}
	return m, t.rows
}

// attributeStream splits the capacity of a study run — workers × the
// wall time of StreamCorpus or shard.Run — into the engine's stages, the
// fold, and what no layer claims. Where the run parsed every project
// (no cache hits), the extract stage is split further into the replay's
// layers in proportion to their replayed cost. Callers hold t.mu.
func (t *layerTrace) attributeStream(wall time.Duration) {
	capacity := time.Duration(t.workers) * wall
	var rows []attrRow
	var attributed time.Duration
	add := func(layer string, d time.Duration) {
		attributed += d
		rows = append(rows, attrRow{Group: "stream", Layer: layer, Seconds: d.Seconds(), Share: share(d, capacity)})
	}
	add("corpus.generate", t.timers["stage.generate"])
	extract := t.timers["stage.extract"]
	var replayed time.Duration
	for _, l := range replayLayers {
		replayed += t.timers[l]
	}
	if t.counts["cache.hits"] == 0 && replayed > 0 {
		for _, l := range replayLayers {
			add(l, time.Duration(float64(extract)*float64(t.timers[l])/float64(replayed)))
		}
	} else {
		add("study.extract", extract)
	}
	add("cache.lookup", t.timers["stage.cache"])
	add("study.measure", t.timers["stage.measure"])
	if worker := t.timers["shard.worker"]; worker > 0 {
		// Inside a worker but outside its engine tasks: the fold, the
		// partial encode and the response.
		add("shard.worker_other", worker-t.timers["engine.busy"])
	} else {
		add("study.fold", t.timers["run.fold"])
	}
	t.idle = capacity - attributed
	rows = append(rows, attrRow{Group: "stream", Layer: "unattributed", Seconds: t.idle.Seconds(), Share: share(t.idle, capacity)})
	t.busy = share(t.timers["engine.busy"], capacity)
	t.rows = append(t.rows, rows...)

	// The figures group splits the run's latency: the stream (or
	// shard.Run) and the section renders after it.
	section7, render := t.timers["run.stats.section7"], t.timers["run.report.render"]
	figures := wall + section7 + render
	stream := "study.stream"
	if w := t.timers["run.shard"]; w > 0 {
		stream = "shard.run"
		t.timers["shard.rpc_overhead"] = w - t.peaks["shard.worker"]
	}
	for _, r := range []struct {
		layer string
		d     time.Duration
	}{{stream, wall}, {"stats.section7", section7}, {"report.render", render}} {
		t.rows = append(t.rows, attrRow{Group: "figures", Layer: r.layer, Seconds: r.d.Seconds(), Share: share(r.d, figures)})
	}
}

// writeTrace exports every span as one Chrome trace.
func (t *layerTrace) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.obs.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
