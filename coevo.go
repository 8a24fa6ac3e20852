// Package coevo is the public facade of the joint source and schema
// evolution study toolkit — a from-scratch reproduction of "Joint Source
// and Schema Evolution: Insights from a Study of 195 FOSS Projects"
// (EDBT 2023).
//
// The toolkit measures, for a software project carrying a single-file SQL
// schema, how the schema's evolution relates to the evolution of the
// surrounding source code:
//
//   - θ-synchronicity: how often the two cumulative progressions move
//     hand-in-hand (RQ1);
//   - life percentage of schema advance over time and over source (RQ2);
//   - α-attainment fractional timepoints: how early the schema collects a
//     given share of its lifetime evolution (RQ3).
//
// The typical flow is:
//
//	projects, _ := coevo.GenerateCorpus(coevo.DefaultCorpusConfig(seed))
//	dataset, _ := coevo.AnalyzeCorpus(projects, coevo.DefaultOptions())
//	hist := dataset.SynchronicityHistogram(0.10, 5)   // Figure 4
//	table := dataset.AdvanceBreakdown()               // Figure 6
//	stats, _ := dataset.Statistics(seed)              // Section 7
//
// or, for a single repository (including ones reconstructed from real
// `git log --name-status` output via the gitlog ingestion path):
//
//	result, _ := coevo.AnalyzeRepository(repo, "db/schema.sql", coevo.DefaultOptions())
//	fmt.Println(result.Measures.Sync10)
package coevo

import (
	"context"
	"io"
	"net/http"

	"coevo/internal/cache"
	"coevo/internal/corpus"
	"coevo/internal/engine"
	"coevo/internal/jobs"
	"coevo/internal/obs"
	"coevo/internal/report"
	"coevo/internal/runlog"
	"coevo/internal/study"
	"coevo/internal/vcs"
)

// Aliases of the core result and configuration types, so downstream code
// can consume the toolkit through this single import.
type (
	// Dataset is the per-project result collection of one study run.
	Dataset = study.Dataset
	// ProjectResult carries every measured quantity for one project.
	ProjectResult = study.ProjectResult
	// Options configures history extraction and taxon classification.
	Options = study.Options
	// CorpusConfig parameterizes synthetic corpus generation.
	CorpusConfig = corpus.Config
	// CorpusProject is one synthesized repository with its intended taxon.
	CorpusProject = corpus.Project
	// Repository is the in-memory git-like repository substrate.
	Repository = vcs.Repository
	// Signature names a commit author at a point in time.
	Signature = vcs.Signature
	// StatsReport is the Section 7 statistical analysis.
	StatsReport = study.StatsReport
	// Failure records one project a study run could not measure.
	Failure = study.Failure
	// ExecOptions configures the execution engine (worker count, failure
	// policy, event observer) — the Exec field of Options.
	ExecOptions = engine.Options
	// ExecEvent is one entry of the engine's task event stream.
	ExecEvent = engine.Event
	// ExecMetrics aggregates an event stream into latency/throughput
	// metrics; see NewExecMetrics.
	ExecMetrics = engine.Metrics
	// Cache is the content-addressed result cache memoizing per-project
	// measure bundles, which StreamCorpus also finds by each generated
	// project's generator inputs, so a warm stream generates nothing; set
	// it on Options.Cache. Output is byte-identical with or without one.
	Cache = cache.Cache
	// CacheOptions configures a Cache; see NewCache.
	CacheOptions = cache.Options
	// CacheStats is a point-in-time snapshot of a cache's counters.
	CacheStats = cache.Stats
	// Observer is the unified observability handle (spans with a Chrome
	// trace exporter, a metrics registry with Prometheus-style exposition,
	// structured logging); set it on Options.Obs, and on CorpusConfig.Obs
	// for GenerateCorpus. A nil *Observer is a valid zero-cost no-op, and
	// study output is byte-identical with observability on or off.
	Observer = obs.Observer
	// ObserverOptions configures an Observer; see NewObserver.
	ObserverOptions = obs.Options
	// MetricsRegistry is an Observer's registry of counters, gauges and
	// histograms.
	MetricsRegistry = obs.Registry
	// TelemetryServer is the embedded HTTP observability server: /metrics
	// (Prometheus text exposition), /healthz, /readyz, /debug/pprof and
	// the /progress SSE stream. A nil *TelemetryServer is a valid no-op.
	TelemetryServer = obs.Server
	// TelemetryOptions configures ServeTelemetry.
	TelemetryOptions = obs.ServeOptions
	// RunManifest is one entry of the persistent run ledger: a recorded
	// run's options, provenance, durations, cache counters and final
	// metrics snapshot.
	RunManifest = runlog.Manifest
	// RunDiffReport compares two run manifests metric by metric; see
	// DiffRuns.
	RunDiffReport = runlog.DiffReport
)

// The job service: a durable, crash-recoverable, multi-tenant queue that
// runs study and ingest submissions through the streaming pipeline —
// what `coevo serve` mounts at /jobs. Open a JobQueue over a directory,
// point it at a JobExecutor, and mount JobsHandler on any mux.
type (
	// JobQueue schedules, persists and recovers jobs; see OpenJobQueue.
	JobQueue = jobs.Queue
	// JobQueueOptions configures OpenJobQueue (directory, executor,
	// concurrency bounds, per-tenant quotas).
	JobQueueOptions = jobs.QueueOptions
	// Job is one submission's persisted record and status document.
	Job = jobs.Job
	// JobSpec is the submitted work: a synthetic study or an ingest
	// payload (git log plus dated DDL versions).
	JobSpec = jobs.Spec
	// JobResult is a finished job's rendered sections.
	JobResult = jobs.Result
	// JobExecutor runs jobs on the streaming pipeline with shared-cache
	// dedup and run-ledger sealing; wire its Run into JobQueueOptions.Exec.
	JobExecutor = jobs.Executor
	// JobEvent is one entry of a job's live event stream.
	JobEvent = jobs.Event
	// JobState is a stop of the queued → running → done|failed|canceled
	// state machine.
	JobState = jobs.State
)

// OpenJobQueue loads (or creates) a durable job directory, re-queues any
// jobs a previous process left running, and starts the scheduler.
func OpenJobQueue(opts JobQueueOptions) (*JobQueue, error) { return jobs.Open(opts) }

// SubmitJob validates, persists and enqueues a submission for tenant.
// The context carries trace correlation only (a W3C trace context, if
// present, stamps the job); it does not bound the job's execution.
func SubmitJob(ctx context.Context, q *JobQueue, tenant string, spec JobSpec) (*Job, error) {
	return q.Submit(ctx, tenant, spec)
}

// JobStatus returns a snapshot of one job.
func JobStatus(q *JobQueue, id string) (*Job, error) { return q.Get(id) }

// CancelJob requests cancellation of a queued or running job.
func CancelJob(q *JobQueue, id string) (*Job, error) { return q.Cancel(id) }

// WaitJob blocks until the job reaches a terminal state or ctx fires.
func WaitJob(ctx context.Context, q *JobQueue, id string) (*Job, error) {
	return q.Wait(ctx, id)
}

// JobsHandler serves a queue's multi-tenant HTTP API (mount at /jobs
// and /jobs/).
func JobsHandler(q *JobQueue) http.Handler { return jobs.Handler(q) }

// Execution-engine re-exports: the policies an ExecOptions can select.
const (
	// CollectErrors records per-project failures and keeps going (default).
	CollectErrors = engine.CollectErrors
	// FailFast aborts the run at the first per-project failure.
	FailFast = engine.FailFast
)

// NewExecMetrics returns a metrics collector; wire its Observe method
// into ExecOptions.OnEvent (via TeeEvents when combining observers).
func NewExecMetrics() *ExecMetrics { return engine.NewMetrics() }

// NewObserver builds an observability handle from opts; thread it through
// Options.Obs (and CorpusConfig.Obs for GenerateCorpus) and harvest with
// Observer.WriteTrace and Observer.Metrics().WritePrometheus after the run.
func NewObserver(opts ObserverOptions) *Observer { return obs.New(opts) }

// ServeTelemetry binds the embedded observability server. The listener
// is bound synchronously: a non-nil return means the endpoints are
// reachable at TelemetryServer.URL. Stop it with Shutdown.
func ServeTelemetry(opts TelemetryOptions) (*TelemetryServer, error) { return obs.Serve(opts) }

// ListRuns reads every manifest of a run-ledger directory, oldest first.
func ListRuns(dir string) ([]*RunManifest, error) { return runlog.List(dir) }

// LoadRun resolves one ledger entry by exact id, unique id prefix, or
// the special names "latest" and "previous".
func LoadRun(dir, id string) (*RunManifest, error) { return runlog.Load(dir, id) }

// DiffRuns compares two run manifests and flags metrics that moved in
// their bad direction by more than threshold (<= 0 uses the default 10%).
func DiffRuns(oldRun, newRun *RunManifest, threshold float64) *RunDiffReport {
	return runlog.Diff(oldRun, newRun, runlog.DiffOptions{Threshold: threshold})
}

// NewCache opens a layered result cache (in-memory LRU front, optional
// on-disk store under opts.Dir). A nil *Cache is valid and always
// misses, so callers can thread an optional cache unconditionally.
func NewCache(opts CacheOptions) (*Cache, error) { return cache.New(opts) }

// NewMemoryCache returns a memory-only result cache with default bounds.
func NewMemoryCache() *Cache { return cache.NewMemory() }

// NewExecProgress returns a progress reporter writing per-decile progress
// lines and failures to w; wire its Observe method into
// ExecOptions.OnEvent.
func NewExecProgress(w io.Writer) *engine.Progress { return engine.NewProgress(w) }

// TeeEvents fans an engine event stream out to several observers.
func TeeEvents(observers ...func(ExecEvent)) func(ExecEvent) { return engine.Tee(observers...) }

// DefaultOptions returns the paper's analysis configuration (month
// chronon, birth counting, published taxon thresholds).
func DefaultOptions() Options { return study.DefaultOptions() }

// DefaultCorpusConfig returns the 195-project corpus configuration with
// the given deterministic seed.
func DefaultCorpusConfig(seed int64) CorpusConfig { return corpus.DefaultConfig(seed) }

// NewRepository creates an empty in-memory repository.
func NewRepository(name string) *Repository { return vcs.NewRepository(name) }

// GenerateCorpus synthesizes a study corpus.
func GenerateCorpus(cfg CorpusConfig) ([]*CorpusProject, error) {
	return GenerateCorpusContext(context.Background(), cfg)
}

// GenerateCorpusContext is GenerateCorpus with a caller context: a
// cancelled context stops materialization and returns the cause.
func GenerateCorpusContext(ctx context.Context, cfg CorpusConfig) ([]*CorpusProject, error) {
	return corpus.GenerateContext(ctx, cfg)
}

// AnalyzeCorpus measures every project of a corpus.
func AnalyzeCorpus(projects []*CorpusProject, opts Options) (*Dataset, error) {
	return AnalyzeCorpusContext(context.Background(), projects, opts)
}

// AnalyzeCorpusContext is AnalyzeCorpus with a caller context. When the
// context is cancelled mid-run, the dataset accumulated so far is
// returned alongside the context's error, so callers can still report
// partial results.
func AnalyzeCorpusContext(ctx context.Context, projects []*CorpusProject, opts Options) (*Dataset, error) {
	return study.AnalyzeCorpusContext(ctx, projects, opts)
}

// AnalyzeRepository measures one repository; pass an empty ddlPath to
// locate the schema file automatically.
func AnalyzeRepository(repo *Repository, ddlPath string, opts Options) (*ProjectResult, error) {
	return AnalyzeRepositoryContext(context.Background(), repo, ddlPath, opts)
}

// AnalyzeRepositoryContext is AnalyzeRepository with a caller context.
func AnalyzeRepositoryContext(ctx context.Context, repo *Repository, ddlPath string, opts Options) (*ProjectResult, error) {
	return study.AnalyzeRepositoryContext(ctx, repo, ddlPath, opts)
}

// RunStudy generates the default 195-project corpus and analyzes it — the
// one-call reproduction of the paper's full pipeline.
func RunStudy(seed int64) (*Dataset, error) {
	return RunStudyContext(context.Background(), seed, DefaultOptions())
}

// RunStudyContext is RunStudy with full control: context cancellation and
// the execution-engine configuration carried by opts.Exec (worker count,
// failure policy, progress/metrics observers). On cancellation the
// partial dataset analyzed so far is returned alongside the context's
// error.
func RunStudyContext(ctx context.Context, seed int64, opts Options) (*Dataset, error) {
	return study.Run(ctx, seed, opts)
}

// Streaming: the fused generate→analyze pipeline every study runs on. A
// CorpusSource hands projects out lazily, StreamStudy pushes each
// analyzed result through a StudySink in corpus order and releases it,
// and Figures accumulates every published figure and statistic online —
// the whole study in O(workers) memory, byte-identical to RunStudy,
// which is the same stream collected into a Dataset.
type (
	// CorpusSource generates a corpus lazily, one project per Next call.
	CorpusSource = corpus.Source
	// StudySink consumes per-project results in corpus order.
	StudySink = study.Sink
	// StreamSummary reports a streaming run's coverage and failures.
	StreamSummary = study.StreamSummary
	// Figures bundles online accumulators for every figure and the
	// Section 7 statistics; it is a StudySink.
	Figures = study.Figures
)

// NewCorpusSource prepares a lazy generator for cfg.
func NewCorpusSource(cfg CorpusConfig) *CorpusSource { return corpus.NewSource(cfg) }

// NewFigures returns online accumulators for the paper's figures.
func NewFigures() *Figures { return study.NewFigures() }

// MultiSink fans each result out to every non-nil sink in order,
// stopping at the first error.
func MultiSink(sinks ...StudySink) StudySink { return study.MultiSink(sinks...) }

// StreamCorpus generates and analyzes src's corpus as one fused stream,
// feeding sink in corpus order. See study.StreamCorpus.
func StreamCorpus(ctx context.Context, src *CorpusSource, sink StudySink, opts Options) (*StreamSummary, error) {
	return study.StreamCorpus(ctx, src, sink, opts)
}

// StreamStudy is the streaming RunStudyContext: it generates the default
// corpus for seed and streams every analyzed project into sink without
// ever materializing the corpus or a Dataset.
func StreamStudy(ctx context.Context, seed int64, opts Options, sink StudySink) (*StreamSummary, error) {
	return study.RunStream(ctx, seed, opts, sink)
}

// PartialFigures is a Figures accumulator viewed as a mergeable,
// serializable partial fold: a shard streams its partition into one,
// seals it with EncodePartial, and a coordinator folds sealed partials
// with Merge. Any partition of the corpus and any merge order reproduce
// the sequential fold exactly.
type PartialFigures = study.PartialFigures

// DecodePartialFigures reconstructs a sealed partial from EncodePartial
// bytes, rejecting truncated, oversized, version-skewed or out-of-order
// payloads.
func DecodePartialFigures(data []byte) (*PartialFigures, error) {
	return study.DecodePartialFigures(data)
}

// PartitionCorpus returns the residue-class partition of src for shard
// k of n: exactly the projects whose global corpus index ≡ k (mod n),
// generated with the same per-index seeding as the full corpus. Feeding
// every partition through StreamCorpus into PartialFigures and merging
// them reproduces the whole-corpus run byte-for-byte.
func PartitionCorpus(src *CorpusSource, shard, of int) (*CorpusSource, error) {
	return src.Partition(shard, of)
}

// Rendering: every figure and export of the study is produced through one
// entry point, Render, which dispatches an artifact and a format to the
// matching encoder.

// Rendering types re-exported from the report package.
type (
	// Format selects a Render encoding: Text, SVG or CSV.
	Format = report.Format
	// Figure is a renderable study artifact; Render also accepts the raw
	// artifact types (JointProgress, SyncHistogram, Dataset, ...) directly.
	Figure = report.Figure
	// JointProgressFigure is a titled joint progress diagram (text, svg).
	JointProgressFigure = report.JointProgressFigure
	// SyncHistogramFigure is the Figure 4 histogram (text, svg).
	SyncHistogramFigure = report.SyncHistogramFigure
	// ScatterFigure is the Figure 5 scatter plot (text, svg).
	ScatterFigure = report.ScatterFigure
	// AdvanceTableFigure is the Figure 6 advance table (text).
	AdvanceTableFigure = report.AdvanceTableFigure
	// AlwaysAdvanceFigure is the Figure 7 per-taxon counts (text).
	AlwaysAdvanceFigure = report.AlwaysAdvanceFigure
	// AttainmentFigure is the Figure 8 attainment breakdown (text).
	AttainmentFigure = report.AttainmentFigure
	// StatsFigure is the Section 7 statistics report (text).
	StatsFigure = report.StatsFigure
	// DatasetFigure is the per-project measurement export (csv).
	DatasetFigure = report.DatasetFigure
)

// The render formats.
const (
	// Text is the terminal-friendly fixed-width encoding.
	Text = report.Text
	// SVG is the vector-graphics encoding of the chart figures.
	SVG = report.SVG
	// CSV is the machine-readable dataset export.
	CSV = report.CSV
)

// ErrUnsupportedFormat reports a figure/format combination with no
// encoder; test with errors.Is.
var ErrUnsupportedFormat = report.ErrUnsupportedFormat

// Render encodes a study artifact to w in the given format. The artifact
// may be a Figure (e.g. JointProgressFigure{Title: ..., Progress: j}) or
// one of the raw artifact types produced by a Dataset, which Render wraps
// itself: *coevolution.JointProgress, *study.SyncHistogram,
// []study.ScatterPoint, *study.AdvanceTable, *study.AlwaysAdvanceSummary,
// *study.AttainmentBreakdown, *StatsReport and *Dataset.
func Render(w io.Writer, artifact any, format Format) error {
	return report.Render(w, artifact, format)
}

// DatasetCSVWriter streams the CSV export row by row; its Add method is
// a StudySink, so a streaming study can emit the data set live.
type DatasetCSVWriter = report.DatasetCSVWriter

// NewDatasetCSVWriter writes the CSV header and returns the row writer.
func NewDatasetCSVWriter(w io.Writer) *DatasetCSVWriter { return report.NewDatasetCSVWriter(w) }
