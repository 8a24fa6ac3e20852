package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"coevo/internal/cache"
	"coevo/internal/corpus"
	"coevo/internal/gitlog"
	"coevo/internal/history"
	"coevo/internal/jobs"
	"coevo/internal/obs"
	"coevo/internal/report"
	"coevo/internal/runlog"
	"coevo/internal/study"
)

// The jobs-mixed traffic mix: unique ingest payloads, resubmissions of an
// earlier payload by another tenant, and small study jobs with fresh
// seeds. The shares are exact per schedule, so the work per run does not
// vary with the seed's draws.
const (
	shareIngest = 0.75
	shareDup    = 0.15
	// studyJobPerTaxon sizes the study jobs: 12 projects each.
	studyJobPerTaxon = 2
	// Serve defaults: concurrent jobs, per-tenant running limit and quota.
	queueWorkers     = 2
	tenantMaxRunning = 1
	tenantQuota      = 8
)

const (
	kindIngest = "ingest"
	kindDup    = "dup"
	kindStudy  = "study"
)

// arrival is one scheduled submission of the open-loop load.
type arrival struct {
	at     time.Duration // due time after the schedule starts
	tenant string
	kind   string
	spec   int // index into jobsInst.payloads; a dup shares its original's
}

// submission is what the load generator saw of one arrival.
type submission struct {
	due, sent, acked time.Time
	status           int
	job              *jobs.Job // final record; nil when rejected
}

type jobsInst struct {
	cfg      *config
	tr       *layerTrace
	arrivals []arrival
	// payloads are the JSON submission bodies, one file per spec, with
	// their sizes: kept on disk so the load generator's copies stay out of
	// the measured heap.
	payloads []string
	sizes    []int64
	dir      string
	cache    *cache.Cache
	queue    *jobs.Queue
	srv      *obs.Server
	client   *http.Client
	subs     []submission
	start    time.Time
}

// setupJobsMixed builds the seeded schedule and its payloads, then starts
// the `coevo serve` stack in process with the serve defaults: production
// Executor over a memory cache, a ledger directory, and jobs.Handler on
// obs.Serve at 127.0.0.1:0. The traced run uses half the window.
func setupJobsMixed(ctx context.Context, cfg *config, tr *layerTrace) (instance, error) {
	window := cfg.Seconds
	if tr != nil {
		window /= 2
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "jobs-")
	if err != nil {
		return nil, err
	}
	j := &jobsInst{cfg: cfg, tr: tr, dir: dir}
	if err := j.schedule(ctx, window); err != nil {
		os.RemoveAll(dir) //nolint:errcheck // already failing
		return nil, err
	}
	if err := j.serve(); err != nil {
		j.close() //nolint:errcheck // already failing
		return nil, err
	}
	return j, nil
}

// schedule draws the arrivals of a window: a Poisson process at
// cfg.JobsRate conditioned on its expected count, i.e. that many uniform
// arrival times, with exact kind shares in a seeded random order.
func (j *jobsInst) schedule(ctx context.Context, window float64) error {
	rng := rand.New(rand.NewSource(j.cfg.Seed))
	n := max(int(math.Round(j.cfg.JobsRate*window)), 3)
	nIngest := max(int(math.Round(shareIngest*float64(n))), 1)
	nDup := int(math.Round(shareDup * float64(n)))
	nStudy := max(n-nIngest-nDup, 1)
	n = nIngest + nDup + nStudy

	kinds := make([]string, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i < nIngest:
			kinds = append(kinds, kindIngest)
		case i < nIngest+nDup:
			kinds = append(kinds, kindDup)
		default:
			kinds = append(kinds, kindStudy)
		}
	}
	rng.Shuffle(n, func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	// A resubmission needs an earlier original: move any dup that comes
	// before the first ingest to just after it.
	first := 0
	for kinds[first] != kindIngest {
		first++
	}
	copy(kinds[:first+1], append([]string{kindIngest}, kinds[:first]...))

	ats := make([]time.Duration, n)
	for i := range ats {
		ats[i] = time.Duration(rng.Float64() * window * float64(time.Second))
	}
	sort.Slice(ats, func(a, b int) bool { return ats[a] < ats[b] })

	payloads, err := ingestPayloads(ctx, j.cfg, nIngest)
	if err != nil {
		return err
	}
	var specs []jobs.Spec
	var ingested []int // spec indices of ingest arrivals so far
	studySeed := j.cfg.Seed * 1000
	for i, kind := range kinds {
		a := arrival{at: ats[i], tenant: fmt.Sprintf("tenant-%02d", rng.Intn(jobsTenants)), kind: kind}
		switch kind {
		case kindIngest:
			a.spec = len(specs)
			specs = append(specs, payloads[len(ingested)])
			ingested = append(ingested, a.spec)
		case kindDup:
			a.spec = ingested[rng.Intn(len(ingested))]
			orig := j.arrivalOf(a.spec)
			for a.tenant == orig.tenant {
				a.tenant = fmt.Sprintf("tenant-%02d", rng.Intn(jobsTenants))
			}
		case kindStudy:
			studySeed++
			a.spec = len(specs)
			specs = append(specs, jobs.Spec{Kind: jobs.KindStudy, Study: &jobs.StudySpec{Seed: studySeed, PerTaxon: studyJobPerTaxon}})
		}
		j.arrivals = append(j.arrivals, a)
	}
	dir := filepath.Join(j.dir, "payloads")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	for i := range specs {
		body, err := json.Marshal(specs[i])
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%04d.json", i))
		if err := os.WriteFile(path, body, 0o644); err != nil {
			return err
		}
		j.payloads = append(j.payloads, path)
		j.sizes = append(j.sizes, int64(len(body)))
	}
	return nil
}

// spec reads payload i back.
func (j *jobsInst) spec(i int) (*jobs.Spec, error) {
	data, err := os.ReadFile(j.payloads[i])
	if err != nil {
		return nil, err
	}
	var s jobs.Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("payload %d: %w", i, err)
	}
	return &s, nil
}

// arrivalOf returns the first arrival of spec.
func (j *jobsInst) arrivalOf(spec int) arrival {
	for _, a := range j.arrivals {
		if a.spec == spec {
			return a
		}
	}
	return arrival{}
}

// ingestPayloads generates n projects, cycling through the six taxa, and
// renders each as the ingest payload `coevo ingest` reads: its
// `git log --name-status --no-merges` text and its dated DDL versions.
func ingestPayloads(ctx context.Context, cfg *config, n int) ([]jobs.Spec, error) {
	perTaxon := (n + 5) / 6
	ccfg := corpusConfig(cfg.Seed+1, perTaxon, cfg.Workers)
	byIndex := make([]jobs.Spec, 0, perTaxon*6)
	_, err := corpus.EachContext(ctx, ccfg, func(p *corpus.Project) error {
		spec, err := ingestSpec(p)
		if err != nil {
			return err
		}
		byIndex = append(byIndex, spec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	specs := make([]jobs.Spec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, byIndex[(i%6)*perTaxon+i/6])
	}
	return specs, nil
}

// ingestSpec renders one generated project as an ingest job.
func ingestSpec(p *corpus.Project) (jobs.Spec, error) {
	var log bytes.Buffer
	if err := gitlog.Emit(&log, gitlog.FromRepository(p.Repo, true)); err != nil {
		return jobs.Spec{}, err
	}
	versions := map[string]string{}
	sameDay := map[string]int{}
	for _, fv := range p.Repo.FileVersions(p.DDLPath) {
		if fv.Deleted {
			continue
		}
		day := fv.Commit.When().UTC().Format("2006-01-02")
		name := day
		if k := sameDay[day]; k > 0 {
			name = fmt.Sprintf("%s.%d", day, k)
		}
		sameDay[day]++
		versions[name] = string(fv.Content)
	}
	return jobs.Spec{Kind: jobs.KindIngest, Name: p.Name, Ingest: &jobs.IngestSpec{GitLog: log.String(), DDLVersions: versions}}, nil
}

// serve starts the service stack the way `coevo serve` wires it.
func (j *jobsInst) serve() error {
	o := obs.New(obs.Options{FlightEvents: obs.DefaultFlightEvents})
	if j.tr != nil {
		o = j.tr.obs
	}
	reg := o.Metrics()
	obs.RegisterProcMetrics(reg)
	ledger := filepath.Join(j.dir, "runs")
	runlog.RegisterMetrics(reg, ledger)
	guard := obs.NewLabelGuard(obs.DefaultTenantLabelCap)
	red := obs.NewRED(reg, guard)
	j.cache = cache.NewMemory()
	j.cache.RegisterMetrics(reg)

	exec := &jobs.Executor{Cache: j.cache, Obs: o, Workers: j.cfg.Workers, LedgerDir: ledger}
	run := exec.Run
	if j.tr != nil {
		run = j.tr.wrapExec(run)
	}
	q, err := jobs.Open(jobs.QueueOptions{
		Dir: filepath.Join(j.dir, "jobs"), Exec: run,
		Workers: queueWorkers, TenantMaxRunning: tenantMaxRunning, TenantMaxQueued: tenantQuota,
		Obs: o, TenantGuard: guard,
	})
	if err != nil {
		return err
	}
	j.queue = q
	q.RegisterMetrics(reg)

	runs := runlog.Handler(ledger)
	api := jobs.Handler(q)
	srv, err := obs.Serve(obs.ServeOptions{
		Addr:     "127.0.0.1:0",
		Registry: reg,
		Handlers: map[string]http.Handler{
			"/runs": runs, "/runs/": runs,
			"/jobs": api, "/jobs/": api,
			"/status": jobs.NewStatusHandler(jobs.StatusOptions{Queue: q, Cache: j.cache, RED: red, Flight: o.Flight(), Start: time.Now()}),
		},
		Tenant: jobs.TenantFromRequest,
		RED:    red,
		Flight: o.Flight(),
	})
	if err != nil {
		return err
	}
	srv.SetReady(true)
	j.srv = srv
	j.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     j.cfg.Workers,
		MaxIdleConnsPerHost: j.cfg.Workers,
	}}
	return nil
}

// rep plays the schedule open-loop: each arrival is handed to one of
// cfg.Workers senders at its due time whether or not earlier jobs have
// finished, then every accepted job is awaited.
func (j *jobsInst) rep(ctx context.Context) (*repResult, error) {
	n := len(j.arrivals)
	j.subs = make([]submission, n)
	j.start = time.Now().Add(20 * time.Millisecond)
	due := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < j.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				j.submit(ctx, i)
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
	var err error
	for i, a := range j.arrivals {
		if d := time.Until(j.start.Add(a.at)); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				err = ctx.Err()
			}
		}
		if err != nil {
			break
		}
		due <- i
	}
	close(due)
	wg.Wait()
	if err != nil {
		return nil, err
	}

	wctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	r := &repResult{units: n}
	var latencies, lags []float64
	var last time.Time
	for i := range j.subs {
		s := &j.subs[i]
		if s.job == nil {
			r.failed++
			continue
		}
		job, err := j.queue.Wait(wctx, s.job.ID)
		if err != nil {
			return nil, fmt.Errorf("wait for job %s: %w", s.job.ID, err)
		}
		s.job = job
		if job.State != jobs.StateDone {
			r.failed++
			continue
		}
		latencies = append(latencies, ms(job.Finished.Sub(s.due)))
		lags = append(lags, ms(s.sent.Sub(s.due)))
		if job.Finished.After(last) {
			last = job.Finished
		}
	}
	if len(latencies) == 0 {
		return nil, fmt.Errorf("no job completed")
	}
	r.latency = time.Duration(median(latencies) * float64(time.Millisecond))
	r.throughput = float64(len(latencies)) / last.Sub(j.start).Seconds()
	r.notes = map[string]float64{
		"jobs_p95_ms":          percentile(latencies, 95),
		"jobs_p99_ms":          percentile(latencies, 99),
		"jobs_completed":       float64(len(latencies)),
		"generator_lag_p99_ms": percentile(lags, 99),
	}
	if j.tr != nil {
		j.tr.jobsRun(j.subs, queueWorkers, last.Sub(j.start))
		j.tr.cacheDelta(cache.Stats{}, j.cache.Stats(), cache.Stats{})
		st := j.queue.Stats()
		j.tr.count("jobs.dedup_hits", float64(st.DedupHit))
		j.tr.count("jobs.rejected", float64(st.Rejected))
	}
	return r, nil
}

// submit POSTs arrival i to the versioned jobs API.
func (j *jobsInst) submit(ctx context.Context, i int) {
	a := j.arrivals[i]
	s := &j.subs[i]
	s.due = j.start.Add(a.at)
	s.sent = time.Now()
	body, err := os.Open(j.payloads[a.spec])
	if err != nil {
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, j.srv.URL()+"/api/v1/jobs", body)
	if err != nil {
		body.Close()
		return
	}
	req.ContentLength = j.sizes[a.spec]
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Coevo-Tenant", a.tenant)
	resp, err := j.client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	s.acked = time.Now()
	s.status = resp.StatusCode
	if resp.StatusCode != http.StatusAccepted {
		return
	}
	var job jobs.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err == nil {
		s.job = &job
	}
	if j.tr != nil {
		j.tr.obs.RecordSpan("bench submit", 0, s.sent, s.acked.Sub(s.sent), "job", job.ID, "tenant", a.tenant)
	}
}

// checkSample is how many results of each kind the check compares
// byte-for-byte against a direct rendering, in schedule order.
var checkSample = map[string]int{kindIngest: 6, kindDup: 3, kindStudy: 2}

// check fetches a fixed sample of finished results over HTTP and compares
// every section with the direct AnalyzeHistories + CaseStudy (ingest) or
// StreamCorpus + StudySections (study) rendering of the same spec.
func (j *jobsInst) check(ctx context.Context) error {
	left := map[string]int{}
	for k, v := range checkSample {
		left[k] = v
	}
	for i, a := range j.arrivals {
		s := j.subs[i]
		if left[a.kind] == 0 || s.job == nil || s.job.State != jobs.StateDone {
			continue
		}
		left[a.kind]--
		got, err := j.result(ctx, s.job.ID)
		if err != nil {
			return err
		}
		spec, err := j.spec(a.spec)
		if err != nil {
			return err
		}
		want, err := directSections(ctx, spec)
		if err != nil {
			return err
		}
		if len(got.Sections) != len(want) {
			return fmt.Errorf("%s job %s: %d sections, direct rendering has %d", a.kind, s.job.ID, len(got.Sections), len(want))
		}
		for name, w := range want {
			if got.Sections[name] != w {
				return fmt.Errorf("%s job %s: section %s differs from the direct rendering", a.kind, s.job.ID, name)
			}
		}
	}
	return nil
}

// result fetches a finished job's result through the HTTP API.
func (j *jobsInst) result(ctx context.Context, id string) (*jobs.Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, j.srv.URL()+"/api/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := j.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result of job %s: %s", id, resp.Status)
	}
	var res jobs.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, fmt.Errorf("result of job %s: %w", id, err)
	}
	return &res, nil
}

// directSections renders spec without the service.
func directSections(ctx context.Context, spec *jobs.Spec) (map[string]string, error) {
	if spec.Kind == jobs.KindStudy {
		cfg := corpusConfig(spec.Study.Seed, spec.Study.PerTaxon, 0)
		figs := study.NewFigures()
		if _, err := study.StreamCorpus(ctx, corpus.NewSource(cfg), figs, study.DefaultOptions()); err != nil {
			return nil, err
		}
		out := map[string]string{}
		for _, s := range report.StudySections(report.FiguresArtifacts(figs, spec.Study.Seed)) {
			var b bytes.Buffer
			if err := s.Write(&b); err != nil {
				return nil, err
			}
			out[s.Name] = b.String()
		}
		return out, nil
	}
	res, err := analyzeIngest(spec, study.DefaultOptions())
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := report.CaseStudy(&b, res); err != nil {
		return nil, err
	}
	return map[string]string{"casestudy.txt": b.String()}, nil
}

// analyzeIngest is the ingest pipeline called directly.
func analyzeIngest(spec *jobs.Spec, opts study.Options) (*study.ProjectResult, error) {
	entries, err := gitlog.Parse(strings.NewReader(spec.Ingest.GitLog))
	if err != nil {
		return nil, err
	}
	ph, err := history.ProjectHistoryFromLog(entries)
	if err != nil {
		return nil, err
	}
	sh, err := history.SchemaHistoryFromContents("schema.sql", datedVersions(spec.Ingest.DDLVersions), opts.History)
	if err != nil {
		return nil, err
	}
	return study.AnalyzeHistories(spec.Label(), "schema.sql", sh, ph, opts)
}

// datedVersions orders "YYYY-MM-DD[.N]" versions by date and sequence and
// spaces them a minute apart: the reference for how `coevo ingest` and
// ingest jobs date a directory of versions. Names come from ingestSpec,
// so they always parse.
func datedVersions(byName map[string]string) []history.DatedContent {
	type dated struct {
		name string
		when time.Time
		seq  int
	}
	files := make([]dated, 0, len(byName))
	for name := range byName {
		day, seq := name, 0
		if dot := strings.IndexByte(name, '.'); dot > 0 {
			day = name[:dot]
			fmt.Sscanf(name[dot+1:], "%d", &seq) //nolint:errcheck // ingestSpec writes the suffix
		}
		when, _ := time.Parse("2006-01-02", day)
		files = append(files, dated{name, when, seq})
	}
	sort.Slice(files, func(a, b int) bool {
		if !files[a].when.Equal(files[b].when) {
			return files[a].when.Before(files[b].when)
		}
		return files[a].seq < files[b].seq
	})
	out := make([]history.DatedContent, len(files))
	for i, f := range files {
		out[i] = history.DatedContent{When: f.when.Add(time.Duration(i) * time.Minute), Content: []byte(byName[f.name])}
	}
	return out
}

// replay re-runs the inputs of the last schedule layer by layer: every
// unique ingest payload and every study job's corpus.
func (j *jobsInst) replay(ctx context.Context) error {
	for _, a := range j.arrivals {
		if a.kind == kindDup {
			continue
		}
		spec, err := j.spec(a.spec)
		if err != nil {
			return err
		}
		switch a.kind {
		case kindIngest:
			if err := j.tr.replayIngest(spec); err != nil {
				return err
			}
		case kindStudy:
			cfg := corpusConfig(spec.Study.Seed, spec.Study.PerTaxon, 1)
			if _, err := j.tr.replayCorpus(ctx, cfg, spec.Study.Seed); err != nil {
				return err
			}
		}
	}
	return nil
}

// close drains the service the way `coevo serve` shuts down, then removes
// its directories.
func (j *jobsInst) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if j.srv != nil {
		j.srv.BeginDrain()
	}
	if j.queue != nil {
		errs = append(errs, j.queue.Close(ctx))
	}
	if j.srv != nil {
		errs = append(errs, j.srv.Shutdown(ctx))
	}
	if j.client != nil {
		j.client.CloseIdleConnections()
	}
	errs = append(errs, os.RemoveAll(j.dir))
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
