package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// The benchmark's definition; the run length is BENCHMARK.json's
// run_seconds. Tests shrink these through config, and the recorded
// figures hash is only checked at the default seed and scale.
const (
	defaultSeed     = 2023
	defaultPerTaxon = 100 // 600 projects, about three times the paper's corpus
	// setups per run: the first of a process is the slowest (heap growth,
	// first files), so setup_s is the median of five and the last set-up
	// is the one measured.
	setups = 5
	// defaultJobsRate and jobsTenants shape the jobs-mixed traffic:
	// independent tenants submitting at this combined Poisson rate.
	defaultJobsRate = 25
	jobsTenants     = 16
)

// config parameterizes one benchmark invocation.
type config struct {
	Seed int64
	// Seconds is the measurement window of one run.
	Seconds float64
	// PerTaxon scales the study corpus: projects per taxon, six taxa.
	PerTaxon int
	// Workers is the analysis parallelism and the jobs load generator's
	// connection count; both equal the host's CPU count.
	Workers  int
	JobsRate float64
	// WorkDir holds cache, job and ledger directories while a run lasts.
	WorkDir string
	// TraceDir receives one Chrome trace per traced run ("" = none).
	TraceDir string
}

func defaultConfig() config {
	return config{
		Seed:     defaultSeed,
		PerTaxon: defaultPerTaxon,
		Workers:  runtime.NumCPU(),
		JobsRate: defaultJobsRate,
		WorkDir:  filepath.Join(".bench_build", "work"),
		TraceDir: filepath.Join(".bench_build", "traces"),
	}
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// study marks the workloads whose output is the rendered study
	// sections, hashed and compared across workloads.
	study bool
	// setup builds the workload's inputs and the system under test. A
	// non-nil trace makes the instance record its layers into it.
	setup func(ctx context.Context, cfg *config, tr *layerTrace) (instance, error)
}

// instance is a workload after set-up.
type instance interface {
	// rep runs one timed repetition.
	rep(ctx context.Context) (*repResult, error)
	// check verifies the outputs of the last repetition; it is not timed.
	check(ctx context.Context) error
	// replay re-runs the inputs of the last repetition serially, one
	// layer at a time, into the set-up's trace; it is not timed.
	replay(ctx context.Context) error
	close() error
}

var workloads = []*workload{
	{name: "study-cold", study: true, setup: setupStudyCold},
	{name: "study-warm", study: true, setup: setupStudyWarm},
	{name: "shard-remote", study: true, setup: setupShardRemote},
	{name: "jobs-mixed", setup: setupJobsMixed},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// repResult is what one repetition measured. The harness adds the heap
// and allocation figures it samples around the call.
type repResult struct {
	// latency runs from the start of the run call to the user-visible
	// result: every study section rendered, or (jobs-mixed) the median job
	// from its due arrival time to its recorded finish.
	latency time.Duration
	// throughput is units completed per second of the units' own time:
	// projects per second of streaming or shard.Run, or jobs completed per
	// second from the first due arrival to the last finish.
	throughput float64
	// units counts the projects or jobs attempted; failed those that failed.
	units, failed int
	// hash is the sha256 of every rendered study section.
	hash string
	// notes are workload-specific figures for the report, such as tail
	// latencies with their sample counts.
	notes    map[string]float64
	peakHeap uint64
	allocs   uint64
}

// The metrics every run measures, one sample per repetition (setup_s: one
// per set-up). BENCHMARK.json bounds setup, heap and allocations; latency
// and throughput are wall-clock times of memory-bound work, reported as
// per-layer metrics without a bound (see README.md).
const (
	mSetup      = "setup_s"
	mLatency    = "latency_ms"
	mThroughput = "throughput_per_s"
	mPeakHeap   = "peak_heap_mib"
	mAllocs     = "allocs_per_unit"
)

// runResult is one run of one workload: what the result line prints and
// what a results file stores.
type runResult struct {
	Workload      string               `json:"workload"`
	Seed          int64                `json:"seed"`
	Attempted     int                  `json:"attempted"`
	Failed        int                  `json:"failed"`
	FiguresSHA256 string               `json:"figures_sha256,omitempty"`
	Metrics       map[string]float64   `json:"metrics"`
	Samples       map[string][]float64 `json:"samples"`
	Notes         map[string]float64   `json:"notes,omitempty"`
	Layers        map[string]float64   `json:"layers,omitempty"`
	Attribution   []attrRow            `json:"attribution,omitempty"`
}

// value looks a metric up among the repetitions' medians, then the traced
// run's per-layer metrics.
func (r *runResult) value(name string) (float64, bool) {
	if v, ok := r.Metrics[name]; ok {
		return v, true
	}
	v, ok := r.Layers[name]
	return v, ok
}

// runWorkload sets w up setups times, measures repetitions of the
// last set-up until cfg.Seconds have passed (at least one), checks every
// output and, with trace, adds one traced repetition on a fresh set-up
// followed by the layer replay.
func runWorkload(ctx context.Context, w *workload, cfg *config, trace bool, log io.Writer) (*runResult, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	res := &runResult{Workload: w.name, Seed: cfg.Seed, Samples: map[string][]float64{}, Notes: map[string]float64{}}
	var inst instance
	defer func() {
		if inst != nil {
			inst.close() //nolint:errcheck // already failing
		}
	}()
	for i := 0; i < setups; i++ {
		if inst != nil {
			err := inst.close()
			inst = nil
			if err != nil {
				return nil, fmt.Errorf("%s: tear down: %w", w.name, err)
			}
		}
		settle()
		start := time.Now()
		next, err := w.setup(ctx, cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		inst = next
		res.Samples[mSetup] = append(res.Samples[mSetup], time.Since(start).Seconds())
	}
	settle()

	notes := map[string][]float64{}
	begin := time.Now()
	for len(res.Samples[mLatency]) == 0 || time.Since(begin).Seconds() < cfg.Seconds {
		r, err := measureRep(ctx, inst)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := inst.check(ctx); err != nil {
			return nil, fmt.Errorf("%s: output check: %w", w.name, err)
		}
		if res.FiguresSHA256 == "" {
			res.FiguresSHA256 = r.hash
		} else if r.hash != res.FiguresSHA256 {
			return nil, fmt.Errorf("%s: output check: repetitions rendered different figures (%s, %s)", w.name, res.FiguresSHA256, r.hash)
		}
		res.Attempted += r.units
		res.Failed += r.failed
		res.Samples[mLatency] = append(res.Samples[mLatency], ms(r.latency))
		res.Samples[mThroughput] = append(res.Samples[mThroughput], r.throughput)
		res.Samples[mPeakHeap] = append(res.Samples[mPeakHeap], float64(r.peakHeap)/(1<<20))
		res.Samples[mAllocs] = append(res.Samples[mAllocs], float64(r.allocs)/float64(max(r.units, 1)))
		for k, v := range r.notes {
			notes[k] = append(notes[k], v)
		}
	}
	if w.study && cfg.Seed == defaultSeed && cfg.PerTaxon == defaultPerTaxon && res.FiguresSHA256 != goldenFiguresSHA256 {
		return nil, fmt.Errorf("%s: output check: figures hash %s, want the recorded %s", w.name, res.FiguresSHA256, goldenFiguresSHA256)
	}
	res.Metrics = map[string]float64{}
	for name, samples := range res.Samples {
		res.Metrics[name] = median(samples)
	}
	for name, samples := range notes {
		res.Notes[name] = median(samples)
	}
	fmt.Fprintf(log, "%s: %d set-ups, %d repetitions in %.1fs\n", w.name, setups, len(res.Samples[mLatency]), time.Since(begin).Seconds())

	if trace {
		if err := tracedRun(ctx, w, cfg, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tracedRun makes one traced repetition on a fresh set-up, checks it
// against the untraced outputs, replays its inputs layer by layer and
// stores the per-layer metrics and attribution in res.
func tracedRun(ctx context.Context, w *workload, cfg *config, res *runResult) error {
	tr := newLayerTrace()
	inst, err := w.setup(ctx, cfg, tr)
	if err != nil {
		return fmt.Errorf("%s: traced set-up: %w", w.name, err)
	}
	defer inst.close() //nolint:errcheck // the untraced run already proved tear-down
	settle()
	r, err := measureRep(ctx, inst)
	if err != nil {
		return fmt.Errorf("%s: traced run: %w", w.name, err)
	}
	if err := inst.check(ctx); err != nil {
		return fmt.Errorf("%s: traced output check: %w", w.name, err)
	}
	if r.hash != res.FiguresSHA256 {
		return fmt.Errorf("%s: output check: traced run rendered figures %s, untraced %s", w.name, r.hash, res.FiguresSHA256)
	}
	tr.overhead = ms(r.latency)/res.Metrics[mLatency] - 1
	if err := inst.replay(ctx); err != nil {
		return fmt.Errorf("%s: layer replay: %w", w.name, err)
	}
	res.Layers, res.Attribution = tr.summarize()
	if cfg.TraceDir != "" {
		path := filepath.Join(cfg.TraceDir, w.name+".trace.json")
		if err := tr.writeTrace(path); err != nil {
			return fmt.Errorf("%s: write trace: %w", w.name, err)
		}
	}
	return nil
}

// settle flushes the file system, so the writeback — and, on file
// systems mounted with discard, the block discards of deleted files — one
// set-up leaves behind is not charged to the next timed phase. Set-ups
// write and delete thousands of cache and job files.
func settle() { syscall.Sync() }

// measureRep runs one repetition after a forced collection, sampling the
// live heap while it runs and counting its heap allocations.
func measureRep(ctx context.Context, inst instance) (*repResult, error) {
	runtime.GC()
	before := readAllocs()
	hs := startHeapSampler()
	r, err := inst.rep(ctx)
	peak := hs.stop()
	if err != nil {
		return nil, err
	}
	r.peakHeap = peak
	r.allocs = readAllocs() - before
	return r, nil
}

// readAllocs returns the process's cumulative heap allocation count,
// read without stopping the world.
func readAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler polls the live heap — the bytes the last garbage
// collection marked reachable — and keeps the largest reading. The live
// heap is what the program needs; the sawtooth of unswept garbage above it
// follows GC timing and varied three times as much between runs.
type heapSampler struct {
	stopc, done chan struct{}
	peak        uint64
}

// heapSampleEvery is shorter than a GC cycle of the streaming study, so
// every cycle's live heap is seen.
const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	<-h.done
	return h.peak
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of values (0 for none).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method).
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = min(max(j, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	m := median(values)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return math.Abs(q3-q1) / math.Abs(m)
}

// percentile returns the nearest-rank p-th percentile of values.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}
