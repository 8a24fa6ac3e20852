// Package runlog is the study toolkit's persistent run ledger: every
// pipeline run (study, gen, taxa, bench) writes one atomic JSON manifest
// — run id, command and options, build provenance, wall time, per-stage
// durations, cache counters, the final metrics-registry snapshot and a
// failure summary — into a ledger directory, so runs survive their
// process and any two of them can be compared for metric regressions
// long after the fact.
//
// The ledger is a plain directory of <run-id>.json files: rsync-able,
// greppable, diff-able with standard tools, and served over HTTP by the
// embedded observability server (internal/obs) at /runs.
package runlog

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"coevo/internal/cache"
)

// Manifest is one recorded run. Every field is filled best-effort: a
// manifest with gaps (no cache, no metrics) is still a valid ledger
// entry.
type Manifest struct {
	// ID is the ledger key: sortable UTC timestamp plus a random suffix.
	ID string `json:"id"`
	// Command is the subcommand that ran ("study", "gen", "taxa", "bench")
	// or "job" for runs executed by the job service.
	Command string `json:"command"`
	// Options records the explicitly-set command-line flags (for CLI runs)
	// or the submitted spec's parameters (for job runs).
	Options map[string]string `json:"options,omitempty"`

	// JobID and Tenant link a manifest to the job-service submission that
	// produced it (empty for CLI runs) — the job→run join key that makes a
	// job's sealed result fetchable and diffable over /runs.
	JobID  string `json:"job_id,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// TraceID is the W3C trace id of the HTTP request that submitted the
	// job — the same id stamped on the job record, its SSE events, the
	// access log line and every exported span, so a manifest joins the
	// full request-scoped trace.
	TraceID string `json:"trace_id,omitempty"`

	Start           time.Time `json:"start"`
	End             time.Time `json:"end"`
	DurationSeconds float64   `json:"duration_seconds"`
	// Outcome is "ok", "failed" or "interrupted".
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`

	// Build and host provenance.
	GoVersion     string `json:"go_version"`
	ModuleVersion string `json:"module_version,omitempty"`
	VCSRevision   string `json:"vcs_revision,omitempty"`
	VCSModified   bool   `json:"vcs_modified,omitempty"`
	Hostname      string `json:"hostname,omitempty"`
	NumCPU        int    `json:"num_cpu"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	CPUModel      string `json:"cpu_model,omitempty"`

	// Run shape and latency summary (from the engine metrics collector).
	Workers          int     `json:"workers,omitempty"`
	Projects         int     `json:"projects"`
	Failed           int     `json:"failed"`
	P50Seconds       float64 `json:"p50_seconds,omitempty"`
	P95Seconds       float64 `json:"p95_seconds,omitempty"`
	MaxSeconds       float64 `json:"max_seconds,omitempty"`
	ThroughputPerSec float64 `json:"throughput_per_sec,omitempty"`
	// PeakHeapBytes is the high-water mark of the sampled live heap over
	// the run (see obs.ProcStats) — the number the streaming pipeline
	// exists to keep flat.
	PeakHeapBytes uint64 `json:"peak_heap_bytes,omitempty"`

	// StageSeconds sums wall time per named pipeline stage across tasks.
	StageSeconds map[string]float64 `json:"stage_seconds,omitempty"`
	// Cache carries the result-cache counters when a cache was attached.
	Cache *CacheStats `json:"cache,omitempty"`
	// Metrics is the final metrics-registry snapshot (series → value).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Failures lists the projects the run could not measure.
	Failures []FailureSummary `json:"failures,omitempty"`

	// Shards is the shard count of a scaled-out run (0 for single-process
	// runs); ShardRuns records each worker's contribution, so the combined
	// manifest is the whole-study ledger entry and each shard's own
	// manifest stays reachable through it.
	Shards    int        `json:"shards,omitempty"`
	ShardRuns []ShardRun `json:"shard_runs,omitempty"`
}

// ShardRun summarizes one worker's slice of a sharded study inside the
// coordinator's combined manifest.
type ShardRun struct {
	Shard      int    `json:"shard"`
	Addr       string `json:"addr,omitempty"`
	ManifestID string `json:"manifest_id,omitempty"`
	TraceID    string `json:"trace_id,omitempty"`
	Projects   int    `json:"projects"`
	Failed     int    `json:"failed,omitempty"`
}

// CacheStats mirrors the result cache's counter snapshot, plus the
// derived hit rate the regression detector compares. The remote fields
// cover the optional remote tier of a sharded run; they stay zero (and
// absent from the JSON) for purely local caches.
type CacheStats struct {
	Hits               int64   `json:"hits"`
	Misses             int64   `json:"misses"`
	MemoryHits         int64   `json:"memory_hits"`
	DiskHits           int64   `json:"disk_hits"`
	RemoteHits         int64   `json:"remote_hits,omitempty"`
	RemoteMisses       int64   `json:"remote_misses,omitempty"`
	Puts               int64   `json:"puts"`
	Corrupt            int64   `json:"corrupt"`
	BytesRead          int64   `json:"bytes_read"`
	BytesWritten       int64   `json:"bytes_written"`
	RemoteBytesRead    int64   `json:"remote_bytes_read,omitempty"`
	RemoteBytesWritten int64   `json:"remote_bytes_written,omitempty"`
	HitRate            float64 `json:"hit_rate"`
}

// NewCacheStats converts a cache counter snapshot — or a per-run delta
// of two snapshots — to the manifest shape, nil when the cache saw no
// traffic at all.
func NewCacheStats(s cache.Stats) *CacheStats {
	if s == (cache.Stats{}) {
		return nil
	}
	return &CacheStats{
		Hits: s.Hits, Misses: s.Misses, MemoryHits: s.MemoryHits,
		DiskHits: s.DiskHits, RemoteHits: s.RemoteHits,
		RemoteMisses: s.RemoteMisses, Puts: s.Puts, Corrupt: s.Corrupt,
		BytesRead: s.BytesRead, BytesWritten: s.BytesWritten,
		RemoteBytesRead: s.RemoteBytesRead, RemoteBytesWritten: s.RemoteBytesWritten,
		HitRate: s.HitRate(),
	}
}

// FailureSummary is one unmeasurable project.
type FailureSummary struct {
	Name string `json:"name"`
	Err  string `json:"err"`
}

// NewID builds a ledger id from the run's start time: a sortable UTC
// timestamp plus four random bytes so concurrent runs never collide.
func NewID(start time.Time) string {
	var suffix [4]byte
	if _, err := rand.Read(suffix[:]); err != nil {
		// Fall back to the sub-second clock; uniqueness degrades only for
		// runs started the same nanosecond.
		return fmt.Sprintf("%s-%09d", start.UTC().Format("20060102T150405"), start.Nanosecond())
	}
	return fmt.Sprintf("%s-%x", start.UTC().Format("20060102T150405"), suffix)
}

// NewManifest starts a manifest for a run beginning now, with the build
// and host provenance already stamped.
func NewManifest(command string, start time.Time) *Manifest {
	m := &Manifest{
		ID:         NewID(start),
		Command:    command,
		Start:      start.UTC(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
	if host, err := os.Hostname(); err == nil {
		m.Hostname = host
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		m.ModuleVersion = info.Main.Version
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.VCSRevision = s.Value
			case "vcs.modified":
				m.VCSModified = s.Value == "true"
			}
		}
	}
	return m
}

// Finish stamps the end time, duration and outcome. A nil runErr is
// "ok"; a context cancellation reads as "interrupted"; anything else is
// "failed" with the cause recorded.
func (m *Manifest) Finish(end time.Time, runErr error) {
	m.End = end.UTC()
	m.DurationSeconds = end.Sub(m.Start).Seconds()
	switch {
	case runErr == nil:
		m.Outcome = "ok"
	case isCancellation(runErr):
		m.Outcome = "interrupted"
		m.Error = runErr.Error()
	default:
		m.Outcome = "failed"
		m.Error = runErr.Error()
	}
}

// isCancellation reports whether err stems from context cancellation —
// matched by message so runlog does not import context semantics it
// cannot see through wrapping anyway.
func isCancellation(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "context canceled") || strings.Contains(msg, "context deadline exceeded")
}

// cpuModel reads the processor model name, best-effort (Linux only;
// empty elsewhere).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// Write persists the manifest atomically into dir (created if missing):
// the JSON is written to a temp file and renamed into place, so a
// crashed or interrupted writer never leaves a torn ledger entry. It
// returns the manifest's path.
func Write(dir string, m *Manifest) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("runlog: %w", err)
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", fmt.Errorf("runlog: marshal %s: %w", m.ID, err)
	}
	raw = append(raw, '\n')
	path := filepath.Join(dir, m.ID+".json")
	tmp, err := os.CreateTemp(dir, ".tmp-"+m.ID+"-*")
	if err != nil {
		return "", fmt.Errorf("runlog: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("runlog: write %s: %w", m.ID, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("runlog: close %s: %w", m.ID, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("runlog: commit %s: %w", m.ID, err)
	}
	return path, nil
}

// List reads every manifest in dir, sorted by start time (ties by id).
// Unreadable or torn entries are skipped — one bad file must not hide
// the rest of the ledger. A missing directory is an empty ledger.
func List(dir string) ([]*Manifest, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	var runs []*Manifest
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		m, err := load(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		runs = append(runs, m)
	}
	sort.Slice(runs, func(a, b int) bool {
		if !runs[a].Start.Equal(runs[b].Start) {
			return runs[a].Start.Before(runs[b].Start)
		}
		return runs[a].ID < runs[b].ID
	})
	return runs, nil
}

// Load resolves one run by exact id, unique id prefix, or the special
// names "latest" and "previous" (the newest and second-newest entries).
func Load(dir, id string) (*Manifest, error) {
	runs, err := List(dir)
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("runlog: ledger %s is empty", dir)
	}
	switch id {
	case "latest":
		return runs[len(runs)-1], nil
	case "previous":
		if len(runs) < 2 {
			return nil, fmt.Errorf("runlog: ledger %s has no previous run", dir)
		}
		return runs[len(runs)-2], nil
	}
	var matches []*Manifest
	for _, m := range runs {
		if m.ID == id {
			return m, nil
		}
		if strings.HasPrefix(m.ID, id) {
			matches = append(matches, m)
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return nil, fmt.Errorf("runlog: no run %q in %s", id, dir)
	default:
		ids := make([]string, len(matches))
		for i, m := range matches {
			ids[i] = m.ID
		}
		return nil, fmt.Errorf("runlog: run id %q is ambiguous: %s", id, strings.Join(ids, ", "))
	}
}

// load reads one manifest file.
func load(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("runlog: %s: %w", path, err)
	}
	if m.ID == "" {
		return nil, fmt.Errorf("runlog: %s: manifest without an id", path)
	}
	return &m, nil
}
