package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// workloads, the run length and every metric with its unit, direction
// and (end-to-end) bound.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// specFile is the benchmark's definition at the repository root.
const specFile = "BENCHMARK.json"

// loadSpec reads path, or the file of that name in the parent directory
// when run inside bench/.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) && !filepath.IsAbs(path) {
		data, err = os.ReadFile(filepath.Join("..", path))
	}
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range s.EndToEnd {
		if m.Bound == nil {
			return nil, fmt.Errorf("%s: end-to-end metric %s has no bound", path, m.Name)
		}
	}
	return &s, nil
}

// provenance pins what produced a results file, so two files are known
// comparable before their numbers are.
type provenance struct {
	Timestamp    string  `json:"timestamp"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	CPUModel     string  `json:"cpu_model,omitempty"`
	GoVersion    string  `json:"go_version"`
	GitRevision  string  `json:"git_revision,omitempty"`
	Seed         int64   `json:"seed"`
	RunSeconds   float64 `json:"run_seconds"`
	Setups       int     `json:"setups"`
	Projects     int     `json:"corpus_projects"`
	Workers      int     `json:"analysis_workers"`
	Connections  int     `json:"http_connections"`
	QueueWorkers int     `json:"queue_workers"`
	ShardWorkers int     `json:"shard_workers"`
	JobsRate     float64 `json:"jobs_per_s"`
	JobsTenants  int     `json:"jobs_tenants"`
}

func newProvenance(cfg *config) provenance {
	return provenance{
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		GitRevision:  gitRevision(),
		Seed:         cfg.Seed,
		RunSeconds:   cfg.Seconds,
		Setups:       setups,
		Projects:     6 * cfg.PerTaxon,
		Workers:      cfg.Workers,
		Connections:  cfg.Workers,
		QueueWorkers: queueWorkers,
		ShardWorkers: shardWorkers,
		JobsRate:     cfg.JobsRate,
		JobsTenants:  jobsTenants,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitRevision names the checked-out commit, or "" outside a git work tree.
func gitRevision() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// resultsFile is what `run -out` writes and `compare` reads: provenance
// plus every run with its raw per-repetition samples.
type resultsFile struct {
	Provenance provenance   `json:"provenance"`
	Runs       []*runResult `json:"runs"`
}

func (r *resultsFile) runsOf(workload string) []*runResult {
	var out []*runResult
	for _, run := range r.Runs {
		if run.Workload == workload {
			out = append(out, run)
		}
	}
	return out
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeResults(path string, r *resultsFile) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
