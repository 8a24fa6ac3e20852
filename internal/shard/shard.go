// Package shard is the coordinator/worker protocol that scales a study
// across processes and machines. The corpus is range-partitioned by
// residue class (corpus.Source.Partition), each worker streams its
// partition through the fused generate→analyze pipeline into a
// mergeable study.PartialFigures, and the coordinator folds the sealed
// partials in deterministic shard order — so an N-shard run is
// byte-identical to the single-process study, figures and CSV alike.
//
// The protocol rides the existing observability plane: one POST
// /shard/run per shard on the worker's obs.Serve server, W3C trace
// context propagated on the request so every shard's spans, access-log
// lines and run manifest join the coordinating run's trace, and an
// optional remote cache tier (served by the coordinator, see
// cache.TierHandler) that dedups generation and measure work across
// every worker process.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"coevo/internal/cache"
	"coevo/internal/corpus"
	"coevo/internal/engine"
	"coevo/internal/obs"
	"coevo/internal/report"
	"coevo/internal/runlog"
	"coevo/internal/sqlddl"
	"coevo/internal/study"
)

// RunRequest asks a worker to analyze one partition of the synthetic
// corpus. Every field that shapes the corpus or the analysis (seed,
// scale, dialect) is in the request, so a worker is stateless between
// runs and any worker can serve any shard.
type RunRequest struct {
	// Seed drives corpus generation — the same seed every shard.
	Seed int64 `json:"seed"`
	// PerTaxon overrides the per-taxon project count (0 = the paper's
	// 195-project corpus).
	PerTaxon int `json:"per_taxon,omitempty"`
	// Dialect selects the SQL dialect adapter ("" = generic).
	Dialect string `json:"dialect,omitempty"`
	// Shard and Of select the partition: this worker analyzes exactly the
	// projects whose global corpus index ≡ Shard (mod Of).
	Shard int `json:"shard"`
	Of    int `json:"of"`
	// CSV asks for the partition's per-project CSV rows, each tagged with
	// its global index so the coordinator can reassemble the sequential
	// export byte-for-byte.
	CSV bool `json:"csv,omitempty"`
	// CacheURL, when set, attaches a remote cache tier at this base URL
	// (the coordinator's /cache route) behind the worker's local layers
	// for the duration of the run.
	CacheURL string `json:"cache_url,omitempty"`
}

// FailureInfo is one unmeasurable project in a shard's partition,
// addressed by its global corpus index so the coordinator can interleave
// failures from every shard back into corpus order.
type FailureInfo struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	Err   string `json:"err"`
}

// CSVRow is one per-project dataset row tagged with its global corpus
// index. Line is the exact bytes the sequential CSV writer would emit
// (newline included); sorting rows from all shards by Index and
// prepending the header reproduces the single-process export.
type CSVRow struct {
	Index int    `json:"index"`
	Line  string `json:"line"`
}

// RunResponse is a worker's sealed contribution: the partition's
// mergeable figures in the versioned partial-figures codec, plus the
// bookkeeping the coordinator folds into the combined run manifest.
type RunResponse struct {
	Shard    int `json:"shard"`
	Projects int `json:"projects"`
	// Figures is study.EncodePartial output (base64 over JSON).
	Figures  []byte        `json:"figures"`
	Failures []FailureInfo `json:"failures,omitempty"`
	CSV      []CSVRow      `json:"csv,omitempty"`
	// ManifestID and TraceID locate the shard's own ledger entry and the
	// trace it joined (the coordinator's, via the propagated traceparent).
	ManifestID string `json:"manifest_id,omitempty"`
	TraceID    string `json:"trace_id,omitempty"`
	// Cache is this run's cache-counter delta (not the worker's lifetime
	// totals), so the coordinator can sum whole-study cache behaviour.
	Cache        *cache.Stats       `json:"cache,omitempty"`
	StageSeconds map[string]float64 `json:"stage_seconds,omitempty"`
}

// errBadRequest marks validation failures the HTTP handler maps to 400;
// everything else is a 500.
var errBadRequest = errors.New("bad request")

// maxRequestBytes bounds a /shard/run request body; run requests are a
// few hundred bytes of parameters, never payloads.
const maxRequestBytes = 1 << 20

// Worker executes shard run requests. One Worker serves every request
// the process receives; its cache and observer are shared across runs
// (the cache deliberately so — it is the worker-local dedup plane).
type Worker struct {
	// Cache, when non-nil, memoizes pipeline stages across runs. When nil
	// and a request carries a CacheURL, a per-run memory cache is created
	// so the remote tier has local layers to front it.
	Cache *cache.Cache
	// Obs observes execution (nil-safe).
	Obs *obs.Observer
	// Workers bounds each run's analysis parallelism (0 = GOMAXPROCS).
	Workers int
	// LedgerDir, when non-empty, seals one "shard" manifest per run.
	LedgerDir string
}

// Handler serves the worker protocol: POST /shard/run with a JSON
// RunRequest, answering a JSON RunResponse. Mount it on the worker's
// obs.Serve server so requests inherit trace propagation, access logs
// and RED metrics.
func (w *Worker) Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var req RunRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, maxRequestBytes)).Decode(&req); err != nil {
			http.Error(rw, "decode request: "+err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := w.Run(r.Context(), &req)
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, errBadRequest) {
				status = http.StatusBadRequest
			}
			http.Error(rw, err.Error(), status)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(resp) //nolint:errcheck // client gone; nothing to do
	})
}

// Run executes one shard: partition the corpus, stream the partition
// through the fused pipeline into a fresh Figures accumulator (plus CSV
// row capture when asked), seal a shard manifest, and return the
// encoded partial. The run's trace identity comes from ctx, so a
// request that arrived with a traceparent reports back into the
// coordinator's trace.
func (w *Worker) Run(ctx context.Context, req *RunRequest) (*RunResponse, error) {
	if req.Of < 1 || req.Shard < 0 || req.Shard >= req.Of {
		return nil, fmt.Errorf("shard: invalid partition %d/%d: %w", req.Shard, req.Of, errBadRequest)
	}
	if req.PerTaxon < 0 {
		return nil, fmt.Errorf("shard: negative per_taxon %d: %w", req.PerTaxon, errBadRequest)
	}
	dial, err := sqlddl.ParseDialect(req.Dialect)
	if err != nil {
		return nil, fmt.Errorf("shard: %v: %w", err, errBadRequest)
	}

	start := time.Now()
	metrics := engine.NewMetrics()
	eopts := engine.Options{Workers: w.Workers, Obs: w.Obs, OnEvent: metrics.Observe}

	c := w.Cache
	if req.CacheURL != "" {
		if c == nil {
			// cache.New with no Dir and default memory bounds never fails.
			c, _ = cache.New(cache.Options{Obs: w.Obs})
		}
		c.SetRemote(cache.NewHTTPTier(req.CacheURL))
		defer c.SetRemote(nil)
	}
	before := c.Stats()

	cfg := corpus.DefaultConfig(req.Seed)
	if req.PerTaxon > 0 {
		for i := range cfg.Profiles {
			cfg.Profiles[i].Count = req.PerTaxon
		}
	}
	cfg.Exec.Workers = w.Workers
	cfg.Obs = w.Obs

	opts := study.DefaultOptions()
	opts.Exec = eopts
	opts.Cache = c
	opts.Obs = w.Obs
	opts.History.Dialect = dial

	part, err := corpus.NewSource(cfg).Partition(req.Shard, req.Of)
	if err != nil {
		return nil, fmt.Errorf("shard: %v: %w", err, errBadRequest)
	}

	figs := study.NewFigures()
	sinks := []study.Sink{figs}
	var rows *csvRows
	if req.CSV {
		rows, err = newCSVRows()
		if err != nil {
			return nil, err
		}
		sinks = append(sinks, rows)
	}

	sum, runErr := study.StreamCorpus(ctx, part, study.MultiSink(sinks...), opts)
	snap := metrics.Snapshot()
	resp := &RunResponse{
		Shard:        req.Shard,
		TraceID:      obs.TraceIDFrom(ctx),
		Cache:        c.Stats().Sub(before).Recorded(),
		StageSeconds: snap.StageSeconds(),
	}
	if sum != nil {
		resp.Projects = sum.Projects
		for _, f := range sum.Failures {
			resp.Failures = append(resp.Failures, FailureInfo{Index: f.Index, Name: f.Name, Err: f.Err.Error()})
		}
	}
	resp.ManifestID = w.seal(req, resp, snap, start, runErr)
	if runErr != nil {
		return nil, runErr
	}
	resp.Figures = figs.EncodePartial()
	if rows != nil {
		resp.CSV = rows.rows
	}
	return resp, nil
}

// seal records the shard run in the worker's ledger (when configured),
// with the latency summary of snap, the run's engine metrics. Interrupted
// and failed runs are sealed too, so the ledger is the complete shard
// history; sealing is best-effort and never fails a run.
func (w *Worker) seal(req *RunRequest, resp *RunResponse, snap engine.Snapshot, start time.Time, runErr error) string {
	if w.LedgerDir == "" {
		return ""
	}
	m := runlog.NewManifest("shard", start)
	m.TraceID = resp.TraceID
	m.Workers = w.Workers
	m.Options = map[string]string{
		"seed":  fmt.Sprint(req.Seed),
		"shard": fmt.Sprint(req.Shard),
		"of":    fmt.Sprint(req.Of),
	}
	if req.PerTaxon > 0 {
		m.Options["per-taxon"] = fmt.Sprint(req.PerTaxon)
	}
	if req.Dialect != "" {
		m.Options["dialect"] = req.Dialect
	}
	m.Shards = req.Of
	m.Projects = resp.Projects
	m.Failed = len(resp.Failures)
	for _, f := range resp.Failures {
		m.Failures = append(m.Failures, runlog.FailureSummary{Name: f.Name, Err: f.Err})
	}
	m.RecordEngine(snap)
	m.Cache = resp.Cache
	m.Finish(time.Now(), runErr)
	if _, err := runlog.Write(w.LedgerDir, m); err != nil {
		w.Obs.Logger().Warn("shard: run manifest not recorded", "err", err)
		return ""
	}
	return m.ID
}

// csvRows captures the per-project CSV export one tagged row at a time.
// It is an index-aware study sink: each row records the project's global
// corpus index, so rows from different shards sort back into the exact
// sequential order. The bytes per row come from the same
// report.DatasetCSVWriter the single-process export uses.
type csvRows struct {
	buf  bytes.Buffer
	w    *report.DatasetCSVWriter
	rows []CSVRow
}

// newCSVRows builds the capture sink, draining the writer's header (the
// coordinator prepends CSVHeader once for the combined file).
func newCSVRows() (*csvRows, error) {
	r := &csvRows{}
	r.w = report.NewDatasetCSVWriter(&r.buf)
	if err := r.w.Flush(); err != nil {
		return nil, err
	}
	r.buf.Reset()
	return r, nil
}

// Add implements study.Sink (local fallback order).
func (r *csvRows) Add(p *study.ProjectResult) error { return r.AddAt(int64(len(r.rows)), p) }

// AddAt implements study.IndexedSink: seq is the global corpus index.
func (r *csvRows) AddAt(seq int64, p *study.ProjectResult) error {
	if err := r.w.Add(p); err != nil {
		return err
	}
	if err := r.w.Flush(); err != nil {
		return err
	}
	r.rows = append(r.rows, CSVRow{Index: int(seq), Line: r.buf.String()})
	r.buf.Reset()
	return nil
}

// CSVHeader returns the dataset export's header line (newline included),
// produced by the same writer that renders it in sequential runs.
func CSVHeader() string {
	var buf bytes.Buffer
	w := report.NewDatasetCSVWriter(&buf)
	w.Flush() //nolint:errcheck // bytes.Buffer writes cannot fail
	return buf.String()
}
