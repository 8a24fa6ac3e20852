package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"coevo/internal/cache"
	"coevo/internal/corpus"
	"coevo/internal/engine"
	"coevo/internal/obs"
	"coevo/internal/runlog"
	"coevo/internal/shard"
	"coevo/internal/study"
)

// benchCase is one timed study run of the benchmark matrix.
type benchCase struct {
	Name string `json:"name"`
	// Mode is "stream" (fused generate→analyze with online aggregation)
	// or "shard" (residue-class partitions folded separately, then merged
	// through the sealed partial-figures codec — the scale-out data path
	// minus the network).
	Mode     string  `json:"mode"`
	Cache    string  `json:"cache"` // "cold" or "warm"
	Workers  int     `json:"workers"`
	Shards   int     `json:"shards,omitempty"`
	Projects int     `json:"projects"`
	Seconds  float64 `json:"seconds"`
	// CacheHits and CacheMisses are the result-cache deltas of this case
	// alone: a cold phase is dominated by misses, a warm phase replays
	// entirely from cache.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// PeakHeapBytes is the sampled live-heap high-water mark of this case
	// (watermark reset after a forced GC at case start) — the number the
	// streaming mode exists to keep flat as the corpus grows.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// AllocsPerProject and AllocBytesPerProject normalize the case's heap
	// allocation count and volume (runtime.MemStats deltas) per analyzed
	// project — the machine-independent signal the allocation-budget work
	// moves and the perf gate watches.
	AllocsPerProject     float64 `json:"allocs_per_project"`
	AllocBytesPerProject float64 `json:"alloc_bytes_per_project"`
}

// benchReport is the JSON document runBench writes. The provenance block
// pins what produced the numbers, so two archived reports are comparable
// (same commit? same machine?) before their timings are.
type benchReport struct {
	Timestamp     string      `json:"timestamp"`
	GoVersion     string      `json:"go_version"`
	ModuleVersion string      `json:"module_version,omitempty"`
	VCSRevision   string      `json:"vcs_revision,omitempty"`
	VCSModified   bool        `json:"vcs_modified,omitempty"`
	NumCPU        int         `json:"num_cpu"`
	GOMAXPROCS    int         `json:"gomaxprocs"`
	CPUModel      string      `json:"cpu_model,omitempty"`
	Seed          int64       `json:"seed"`
	Results       []benchCase `json:"results"`
	// Runlog embeds the run's sealed ledger manifest, per-case wall times
	// and allocation metrics included — 'coevo runs import' lifts it into
	// a ledger so scripts/perf-gate.sh can diff a fresh bench run against
	// a committed baseline report with 'coevo runs diff'.
	Runlog *runlog.Manifest `json:"runlog,omitempty"`
}

// runBench times full study runs — cold and warm cache, serial and
// parallel, streaming and (with -shards) sharded — and writes a
// machine-readable JSON report, so CI can archive the toolkit's
// performance envelope alongside every build. Each case records its peak
// sampled heap next to its wall time, making the streaming memory bound
// measurable. With -runlog-dir the run also lands in the persistent
// ledger (each case's wall time as a stage), where 'coevo runs diff'
// flags timing regressions between bench runs.
func runBench(ctx context.Context, args []string) error {
	fs := newFlagSet("bench")
	out := fs.String("out", "BENCH_pr7.json", "write the benchmark report JSON to this path")
	seed := fs.Int64("seed", 2023, "corpus generation seed")
	perTaxon := fs.Int("per-taxon", 0, "shrink the corpus to N projects per taxon (0 = the full 195-project corpus)")
	workers := fs.Int("workers", 0, "pin the matrix to exactly this worker count (0 = 1 plus NumCPU); the perf gate pins 1 so stage keys match across machines")
	benchShards := fs.Int("shards", 0, "also time the sharded data path partitioned this many ways (0 = skip; the perf gate omits it so the matrix shape — total duration, cache totals — stays comparable to pre-shard baselines)")
	runlogDir := fs.String("runlog-dir", "", "also record the bench run as a manifest in this ledger directory")
	if ok, err := parseFlags(fs, args); !ok {
		return err
	}
	// The manifest doubles as the provenance source for the JSON report,
	// whether or not it ends up in a ledger.
	manifest := runlog.NewManifest("bench", time.Now())
	manifest.Options = map[string]string{}
	fs.Visit(func(f *flag.Flag) { manifest.Options[f.Name] = f.Value.String() })

	profiles := corpus.DefaultProfiles()
	if *perTaxon > 0 {
		for i := range profiles {
			profiles[i].Count = *perTaxon
		}
	}
	proc := &obs.ProcStats{}
	sample := func(e engine.Event) {
		if e.Type == engine.TaskFinished || e.Type == engine.TaskFailed {
			proc.Sample()
		}
	}
	runOnce := func(mode string, workers int, c *cache.Cache) (caseRun, error) {
		cfg := corpus.DefaultConfig(*seed)
		cfg.Profiles = profiles
		opts := study.DefaultOptions()
		opts.Exec.Workers = workers
		opts.Exec.OnEvent = sample
		opts.Cache = c
		// Isolate this case's heap watermark from the previous case's
		// garbage before timing starts.
		runtime.GC()
		proc.Reset()
		var msBefore runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		start := time.Now()
		var n int
		if mode == "shard" {
			// The full sharded data path, in process: each residue-class
			// partition streams through its own fused pipeline, and the
			// sealed partials round-trip the codec in shard.Merge — what a
			// coordinator pays per shard, minus the network hop.
			resps := make([]*shard.RunResponse, *benchShards)
			for k := range resps {
				w := &shard.Worker{Cache: c, Workers: workers}
				resp, err := w.Run(ctx, &shard.RunRequest{Seed: *seed, PerTaxon: *perTaxon, Shard: k, Of: *benchShards})
				if err != nil {
					return caseRun{}, err
				}
				resps[k] = resp
				proc.Sample()
			}
			res, err := shard.Merge(resps)
			if err != nil {
				return caseRun{}, err
			}
			n = res.Projects
		} else {
			sum, err := study.StreamCorpus(ctx, corpus.NewSource(cfg), study.NewFigures(), opts)
			if err != nil {
				return caseRun{}, err
			}
			n = sum.Projects
		}
		secs := time.Since(start).Seconds()
		proc.Sample()
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		return caseRun{
			projects:   n,
			seconds:    secs,
			peakHeap:   proc.Peak(),
			allocs:     msAfter.Mallocs - msBefore.Mallocs,
			allocBytes: msAfter.TotalAlloc - msBefore.TotalAlloc,
		}, nil
	}

	workerSettings := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workerSettings = append(workerSettings, n)
	}
	if *workers > 0 {
		workerSettings = []int{*workers}
	}
	rep := benchReport{
		Timestamp:     manifest.Start.Format(time.RFC3339),
		GoVersion:     manifest.GoVersion,
		ModuleVersion: manifest.ModuleVersion,
		VCSRevision:   manifest.VCSRevision,
		VCSModified:   manifest.VCSModified,
		NumCPU:        manifest.NumCPU,
		GOMAXPROCS:    manifest.GOMAXPROCS,
		CPUModel:      manifest.CPUModel,
		Seed:          *seed,
	}
	var totalHits, totalMisses int64
	var peakHeap uint64
	for _, workers := range workerSettings {
		modes := []string{"stream"}
		if *benchShards > 0 {
			modes = append(modes, "shard")
		}
		for _, mode := range modes {
			// One shared in-memory cache per (mode, worker) cell: the first
			// run is the cold measurement, the second replays it warm. The
			// shard cell shares one cache across its in-process workers, as
			// the remote tier does across real ones.
			c := cache.NewMemory()
			prefix := "study-stream"
			if mode == "shard" {
				prefix = fmt.Sprintf("study-shard%d", *benchShards)
			}
			for _, phase := range []string{"cold", "warm"} {
				before := c.Stats()
				run, err := runOnce(mode, workers, c)
				if err != nil {
					return err
				}
				after := c.Stats()
				bc := benchCase{
					Name: fmt.Sprintf("%s/%s/workers=%d", prefix, phase, workers),
					Mode: mode, Cache: phase, Workers: workers, Projects: run.projects, Seconds: run.seconds,
					CacheHits:     after.Hits - before.Hits,
					CacheMisses:   after.Misses - before.Misses,
					PeakHeapBytes: run.peakHeap,
				}
				if mode == "shard" {
					bc.Shards = *benchShards
				}
				if run.projects > 0 {
					bc.AllocsPerProject = float64(run.allocs) / float64(run.projects)
					bc.AllocBytesPerProject = float64(run.allocBytes) / float64(run.projects)
				}
				rep.Results = append(rep.Results, bc)
				totalHits += bc.CacheHits
				totalMisses += bc.CacheMisses
				if run.peakHeap > peakHeap {
					peakHeap = run.peakHeap
				}
				manifest.Projects = run.projects
				manifest.StageSeconds = appendStage(manifest.StageSeconds, bc.Name, run.seconds)
				// Per-case metrics ride in the manifest so 'coevo runs diff'
				// (and the perf gate built on it) watches allocation budgets
				// and heap ceilings, not just wall time.
				manifest.Metrics = appendStage(manifest.Metrics, "bench/"+bc.Name+"/allocs_per_project", bc.AllocsPerProject)
				manifest.Metrics = appendStage(manifest.Metrics, "bench/"+bc.Name+"/alloc_bytes_per_project", bc.AllocBytesPerProject)
				manifest.Metrics = appendStage(manifest.Metrics, "bench/"+bc.Name+"/heap_peak_bytes", float64(bc.PeakHeapBytes))
				fmt.Fprintf(os.Stderr, "bench %-34s %8.3fs  (%d projects, %d cache hits / %d misses, peak heap %.1f MiB, %.0f allocs/project)\n",
					bc.Name, bc.Seconds, bc.Projects, bc.CacheHits, bc.CacheMisses, float64(bc.PeakHeapBytes)/(1<<20), bc.AllocsPerProject)
			}
		}
	}

	// Seal the manifest before writing the report: the report embeds it, so
	// a committed BENCH_*.json is a complete, importable baseline for the
	// perf gate even when no -runlog-dir was given at record time.
	manifest.Cache = cache.Stats{Hits: totalHits, Misses: totalMisses}.Recorded()
	manifest.PeakHeapBytes = peakHeap
	manifest.Finish(time.Now(), nil)
	rep.Runlog = manifest

	if err := writeFile(*out, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}); err != nil {
		return err
	}
	fmt.Printf("wrote benchmark report to %s\n", *out)

	if *runlogDir != "" {
		path, err := runlog.Write(*runlogDir, manifest)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "recorded bench run %s in %s\n", manifest.ID, path)
	}
	return nil
}

// caseRun is one timed measurement of a bench matrix cell.
type caseRun struct {
	projects   int
	seconds    float64
	peakHeap   uint64
	allocs     uint64
	allocBytes uint64
}

// appendStage inserts into a possibly-nil stage map.
func appendStage(m map[string]float64, name string, secs float64) map[string]float64 {
	if m == nil {
		m = map[string]float64{}
	}
	m[name] = secs
	return m
}
