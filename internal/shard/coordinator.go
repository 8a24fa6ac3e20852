package shard

// The coordinator side: fan a RunRequest out to one worker per shard,
// then Merge the responses — decode and fold the partial figures in
// deterministic shard order, and reassemble failures and CSV rows into
// global corpus order. Because every figure is an associative fold keyed
// by global index, the merged result is byte-identical to the
// single-process run — the coordinator asserts nothing weaker.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"coevo/internal/cache"
	"coevo/internal/obs"
	"coevo/internal/runlog"
	"coevo/internal/study"
)

// Result is the folded outcome of a sharded run: the combined figures
// (equal to a sequential run's), corpus-ordered failures and CSV rows,
// and the per-shard bookkeeping the coordinator seals into its combined
// manifest.
type Result struct {
	// Figures is the merged accumulator — feed it to report.Figures
	// Artifacts exactly like a single-process run's.
	Figures *study.Figures
	// Projects counts delivered results across every shard.
	Projects int
	// Failures lists unmeasurable projects from every shard, sorted by
	// global corpus index — the order a sequential run reports them in.
	Failures []study.Failure
	// CSVRows holds the dataset rows (when requested), sorted by global
	// index; WriteCSV renders them with the header.
	CSVRows []CSVRow
	// Shards records each worker's contribution for the combined
	// manifest; Cache and StageSeconds are the across-shard sums.
	Shards       []runlog.ShardRun
	Cache        *cache.Stats
	StageSeconds map[string]float64
	// TraceID is the trace every shard request carried.
	TraceID string
}

// WriteCSV renders the combined per-project dataset: the header line
// followed by every captured row in global corpus order — byte-identical
// to the sequential export.
func (r *Result) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, CSVHeader()); err != nil {
		return err
	}
	for _, row := range r.CSVRows {
		if _, err := io.WriteString(w, row.Line); err != nil {
			return err
		}
	}
	return nil
}

// Run coordinates one sharded study: shard i of len(addrs) goes to
// addrs[i], all shards run concurrently, and the partials fold in shard
// order. The request's Shard field is ignored (set per worker); Of
// defaults to len(addrs) and must match it when set. Each shard request
// carries a child span of ctx's trace context, so the whole fan-out is
// one trace.
//
// A failed shard fails the run: partial figures from a subset of shards
// would silently change the study's population, which is exactly the
// kind of quiet skew the merge laws exist to prevent. The first failure
// cancels the sibling shards, and Run returns that failure, not a
// sibling's cancellation.
func Run(ctx context.Context, addrs []string, req RunRequest) (*Result, error) {
	n := len(addrs)
	if n == 0 {
		return nil, errors.New("shard: no worker addresses")
	}
	if req.Of == 0 {
		req.Of = n
	}
	if req.Of != n {
		return nil, fmt.Errorf("shard: %d workers for %d shards", n, req.Of)
	}
	tc, ok := obs.TraceContextFrom(ctx)
	if !ok || !tc.Valid() {
		tc = obs.NewTraceContext()
	}

	// No client timeout: a shard runs as long as its partition takes;
	// cancellation comes from ctx through the per-request context.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	client := &http.Client{}
	responses := make([]*RunResponse, n)
	var (
		wg       sync.WaitGroup
		fail     sync.Once
		firstErr error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sreq := req
			sreq.Shard = i
			resp, err := post(ctx, client, addrs[i], &sreq, tc.Child())
			if err != nil {
				fail.Do(func() {
					firstErr = fmt.Errorf("shard %d (%s): %w", i, addrs[i], err)
					cancel()
				})
				return
			}
			responses[i] = resp
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	res, err := Merge(responses)
	if err != nil {
		return nil, err
	}
	for i := range res.Shards {
		res.Shards[i].Addr = addrs[i]
	}
	res.TraceID = tc.TraceID
	return res, nil
}

// Merge folds shard responses into one Result — the only place partial
// figures are decoded and combined. resps[i] must be shard i's response,
// and its partial must hold the Projects it reports; a response that
// fails either check is refused. Partials fold in shard order, cache and
// stage bookkeeping sum across shards, and failures and CSV rows sort by
// global corpus index, so the result is byte-identical to the
// single-process run. Shard addresses and the trace id are the caller's
// to fill in.
func Merge(resps []*RunResponse) (*Result, error) {
	res := &Result{Figures: study.NewFigures()}
	var cacheSum cache.Stats
	for i, r := range resps {
		if r.Shard != i {
			return nil, fmt.Errorf("shard %d: response is for shard %d", i, r.Shard)
		}
		part, err := study.DecodePartialFigures(r.Figures)
		if err != nil {
			return nil, fmt.Errorf("shard %d: decode partial: %w", i, err)
		}
		if part.Count() != r.Projects {
			return nil, fmt.Errorf("shard %d: partial holds %d projects, response reports %d", i, part.Count(), r.Projects)
		}
		if err := res.Figures.Merge(part); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		res.Projects += r.Projects
		for _, f := range r.Failures {
			res.Failures = append(res.Failures, study.Failure{Name: f.Name, Index: f.Index, Err: errors.New(f.Err)})
		}
		res.CSVRows = append(res.CSVRows, r.CSV...)
		res.Shards = append(res.Shards, runlog.ShardRun{
			Shard: i, ManifestID: r.ManifestID,
			TraceID: r.TraceID, Projects: r.Projects, Failed: len(r.Failures),
		})
		if r.Cache != nil {
			cacheSum = cacheSum.Add(*r.Cache)
		}
		if len(r.StageSeconds) > 0 {
			if res.StageSeconds == nil {
				res.StageSeconds = make(map[string]float64, len(r.StageSeconds))
			}
			for stage, secs := range r.StageSeconds {
				res.StageSeconds[stage] += secs
			}
		}
	}
	res.Cache = cacheSum.Recorded()
	// Disjoint partitions mean distinct indices, so index order is total
	// and the sorts reproduce the sequential report exactly.
	sort.Slice(res.Failures, func(a, b int) bool { return res.Failures[a].Index < res.Failures[b].Index })
	sort.Slice(res.CSVRows, func(a, b int) bool { return res.CSVRows[a].Index < res.CSVRows[b].Index })
	return res, nil
}

// post sends one shard's run request and decodes the response. addr may
// be a bare host:port or a full base URL.
func post(ctx context.Context, client *http.Client, addr string, req *RunRequest, tc obs.TraceContext) (*RunResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	base := strings.TrimRight(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+obs.APIPrefix+"/shard/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("traceparent", tc.Traceparent())
	resp, err := client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // best-effort drain
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("worker returned %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return &rr, nil
}
