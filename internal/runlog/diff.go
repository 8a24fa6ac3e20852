package runlog

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"coevo/internal/cache"
)

// Direction classifies how a metric's movement reads.
type Direction int

const (
	// Neutral metrics are reported but never flagged (e.g. task counts).
	Neutral Direction = iota
	// HigherWorse metrics regress upward (latencies, failures, misses).
	HigherWorse
	// HigherBetter metrics regress downward (throughput, hit rate).
	HigherBetter
)

// String names the direction for rendering.
func (d Direction) String() string {
	switch d {
	case HigherWorse:
		return "higher-worse"
	case HigherBetter:
		return "higher-better"
	default:
		return "neutral"
	}
}

// MarshalJSON renders the direction by name, so the structured report
// (`coevo runs diff -json`) is readable without this package's enum.
func (d Direction) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.String())
}

// UnmarshalJSON accepts the named form (and the legacy integer one).
func (d *Direction) UnmarshalJSON(raw []byte) error {
	var name string
	if err := json.Unmarshal(raw, &name); err != nil {
		var n int
		if err := json.Unmarshal(raw, &n); err != nil {
			return err
		}
		*d = Direction(n)
		return nil
	}
	switch name {
	case "higher-worse":
		*d = HigherWorse
	case "higher-better":
		*d = HigherBetter
	default:
		*d = Neutral
	}
	return nil
}

// Delta is one compared metric between two runs.
type Delta struct {
	Metric    string    `json:"metric"`
	Old       float64   `json:"old"`
	New       float64   `json:"new"`
	Diff      float64   `json:"diff"` // New - Old
	Pct       float64   `json:"pct"`  // relative change vs Old (0 when Old is 0)
	Direction Direction `json:"direction"`
	// Regression is set when the metric moved in its bad direction by
	// more than the diff threshold.
	Regression bool `json:"regression,omitempty"`
}

// DiffOptions tunes the regression detector.
type DiffOptions struct {
	// Threshold is the relative drift that flags a regression (0.10 =
	// 10%; <= 0 uses the default 0.10).
	Threshold float64
}

// DefaultThreshold is the relative drift flagged without -threshold.
const DefaultThreshold = 0.10

// DiffReport is the comparison of two ledger entries — the structured
// document behind `coevo runs diff -json`, which the perf gate parses
// instead of scraping the rendered table.
type DiffReport struct {
	OldID       string  `json:"old_id"`
	NewID       string  `json:"new_id"`
	Threshold   float64 `json:"threshold"`
	Deltas      []Delta `json:"deltas"`
	Regressions int     `json:"regressions"`
}

// Diff compares two manifests metric by metric: the latency and
// throughput summary, per-stage wall time, cache effectiveness, and
// every shared series of the final metrics snapshots. Metrics that moved
// in their bad direction beyond the threshold are flagged as
// regressions.
func Diff(oldRun, newRun *Manifest, opts DiffOptions) *DiffReport {
	threshold := opts.Threshold
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	r := &DiffReport{OldID: oldRun.ID, NewID: newRun.ID, Threshold: threshold}
	add := func(metric string, oldV, newV float64, dir Direction) {
		d := Delta{Metric: metric, Old: oldV, New: newV, Diff: newV - oldV, Direction: dir}
		if oldV != 0 {
			d.Pct = (newV - oldV) / oldV
		}
		switch dir {
		case HigherWorse:
			if oldV == 0 {
				d.Regression = newV > 0
			} else {
				d.Regression = d.Pct > threshold
			}
		case HigherBetter:
			d.Regression = oldV != 0 && d.Pct < -threshold
		}
		if d.Regression {
			r.Regressions++
		}
		r.Deltas = append(r.Deltas, d)
	}

	add("duration_seconds", oldRun.DurationSeconds, newRun.DurationSeconds, HigherWorse)
	add("p50_seconds", oldRun.P50Seconds, newRun.P50Seconds, HigherWorse)
	add("p95_seconds", oldRun.P95Seconds, newRun.P95Seconds, HigherWorse)
	add("max_seconds", oldRun.MaxSeconds, newRun.MaxSeconds, HigherWorse)
	add("throughput_per_sec", oldRun.ThroughputPerSec, newRun.ThroughputPerSec, HigherBetter)
	add("peak_heap_bytes", float64(oldRun.PeakHeapBytes), float64(newRun.PeakHeapBytes), HigherWorse)
	add("projects", float64(oldRun.Projects), float64(newRun.Projects), Neutral)
	add("failed", float64(oldRun.Failed), float64(newRun.Failed), HigherWorse)

	// Stages compare only where both runs measured them: a stage present
	// in one run only (a renamed stage, or a new bench case against an
	// older baseline) is reported but is not a regression.
	for _, stage := range unionKeys(oldRun.StageSeconds, newRun.StageSeconds) {
		oldV, okOld := oldRun.StageSeconds[stage]
		newV, okNew := newRun.StageSeconds[stage]
		if !okOld || !okNew {
			r.Deltas = append(r.Deltas, Delta{
				Metric: "stage_seconds/" + stage, Old: oldV, New: newV,
				Diff: newV - oldV, Direction: HigherWorse,
			})
			continue
		}
		add("stage_seconds/"+stage, oldV, newV, HigherWorse)
	}
	if oldRun.Cache != nil || newRun.Cache != nil {
		var oc, nc cache.Stats
		if oldRun.Cache != nil {
			oc = *oldRun.Cache
		}
		if newRun.Cache != nil {
			nc = *newRun.Cache
		}
		add("cache/hit_rate", oc.HitRate(), nc.HitRate(), HigherBetter)
		add("cache/misses", float64(oc.Misses), float64(nc.Misses), HigherWorse)
		add("cache/corrupt", float64(oc.Corrupt), float64(nc.Corrupt), HigherWorse)
	}
	// The metrics snapshots compare only where both runs have the series
	// (a renamed or new metric is not a regression), and histogram bucket
	// series stay out — the _sum/_count pair already carries the signal.
	for _, name := range unionKeys(oldRun.Metrics, newRun.Metrics) {
		if strings.Contains(name, "_bucket{") || strings.Contains(name, `le="`) {
			continue
		}
		oldV, okOld := oldRun.Metrics[name]
		newV, okNew := newRun.Metrics[name]
		if !okOld || !okNew {
			continue
		}
		add("metrics/"+name, oldV, newV, metricDirection(name))
	}
	return r
}

// metricDirection classifies a registry series by naming convention.
func metricDirection(name string) Direction {
	base := name
	if i := strings.IndexByte(base, '{'); i >= 0 {
		base = base[:i]
	}
	switch {
	case strings.Contains(base, "failures"), strings.Contains(base, "misses"),
		strings.Contains(base, "corrupt"), strings.Contains(base, "heap_peak"),
		strings.Contains(base, "allocs"), strings.Contains(base, "alloc_bytes"):
		return HigherWorse
	case strings.HasSuffix(base, "_seconds_sum"), strings.HasSuffix(base, "_seconds_total"):
		return HigherWorse
	case strings.Contains(base, "hits"):
		return HigherBetter
	default:
		return Neutral
	}
}

// unionKeys returns the sorted union of two maps' keys.
func unionKeys[V any](a, b map[string]V) []string {
	seen := make(map[string]bool, len(a)+len(b))
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Write renders the report as a text table: every compared metric with
// old/new/delta, regressions marked with a leading '!', and a closing
// verdict line.
func (r *DiffReport) Write(w io.Writer) error {
	fmt.Fprintf(w, "diff %s -> %s (threshold %.0f%%)\n", r.OldID, r.NewID, 100*r.Threshold)
	fmt.Fprintf(w, "  %-52s %14s %14s %10s\n", "metric", "old", "new", "change")
	for _, d := range r.Deltas {
		if d.Old == d.New && !d.Regression {
			continue // unchanged rows are noise at 195-project scale
		}
		mark := " "
		if d.Regression {
			mark = "!"
		}
		change := "new"
		if d.Old != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*d.Pct)
		} else if d.New == 0 {
			change = "0"
		}
		fmt.Fprintf(w, "%s %-52s %14s %14s %10s\n",
			mark, d.Metric, formatValue(d.Old), formatValue(d.New), change)
	}
	if r.Regressions == 0 {
		_, err := fmt.Fprintln(w, "no regressions")
		return err
	}
	_, err := fmt.Fprintf(w, "%d regression(s) beyond %.0f%%\n", r.Regressions, 100*r.Threshold)
	return err
}

// formatValue renders a metric value compactly (integers undecorated).
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}

// WriteList renders the ledger as one line per run, oldest first.
func WriteList(w io.Writer, runs []*Manifest) error {
	fmt.Fprintf(w, "%-24s %-7s %-20s %9s %9s %7s %-12s\n",
		"run", "command", "start (utc)", "duration", "projects", "failed", "outcome")
	for _, m := range runs {
		fmt.Fprintf(w, "%-24s %-7s %-20s %8.2fs %9d %7d %-12s\n",
			m.ID, m.Command, m.Start.UTC().Format("2006-01-02 15:04:05"),
			m.DurationSeconds, m.Projects, m.Failed, m.Outcome)
	}
	_, err := fmt.Fprintf(w, "%d run(s)\n", len(runs))
	return err
}

// WriteManifest renders one manifest human-readably: the provenance and
// summary up top, then stages, cache and failures. The full metrics
// snapshot stays in the JSON — `coevo runs show` is a summary, not a
// dump.
func WriteManifest(w io.Writer, m *Manifest) error {
	fmt.Fprintf(w, "run       %s (%s)\n", m.ID, m.Command)
	fmt.Fprintf(w, "outcome   %s", m.Outcome)
	if m.Error != "" {
		fmt.Fprintf(w, " (%s)", m.Error)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "when      %s, %.2fs\n", m.Start.UTC().Format(time.RFC3339), m.DurationSeconds)
	fmt.Fprintf(w, "build     %s %s", m.GoVersion, m.ModuleVersion)
	if m.VCSRevision != "" {
		rev := m.VCSRevision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Fprintf(w, " @%s", rev)
		if m.VCSModified {
			fmt.Fprint(w, "+dirty")
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "host      %s, %d cpus (GOMAXPROCS %d)", m.Hostname, m.NumCPU, m.GOMAXPROCS)
	if m.CPUModel != "" {
		fmt.Fprintf(w, ", %s", m.CPUModel)
	}
	fmt.Fprintln(w)
	if len(m.Options) > 0 {
		keys := make([]string, 0, len(m.Options))
		for k := range m.Options {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprint(w, "options  ")
		for _, k := range keys {
			fmt.Fprintf(w, " -%s=%s", k, m.Options[k])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "projects  %d analyzed, %d failed\n", m.Projects, m.Failed)
	if m.P95Seconds > 0 || m.ThroughputPerSec > 0 {
		fmt.Fprintf(w, "latency   p50 %.4fs  p95 %.4fs  max %.4fs  (%.1f tasks/s)\n",
			m.P50Seconds, m.P95Seconds, m.MaxSeconds, m.ThroughputPerSec)
	}
	if m.PeakHeapBytes > 0 {
		fmt.Fprintf(w, "memory    peak heap %.1f MiB\n", float64(m.PeakHeapBytes)/(1<<20))
	}
	if len(m.StageSeconds) > 0 {
		fmt.Fprint(w, "stages   ")
		for _, stage := range unionKeys(m.StageSeconds, nil) {
			fmt.Fprintf(w, " %s=%.3fs", stage, m.StageSeconds[stage])
		}
		fmt.Fprintln(w)
	}
	if c := m.Cache; c != nil {
		fmt.Fprintf(w, "cache     %d hits / %d misses (%.0f%% hit rate), %d puts, %d corrupt healed\n",
			c.Hits, c.Misses, 100*c.HitRate(), c.Puts, c.Corrupt)
	}
	for _, f := range m.Failures {
		fmt.Fprintf(w, "  FAIL %s: %s\n", f.Name, f.Err)
	}
	_, err := fmt.Fprintf(w, "metrics   %d series in the snapshot\n", len(m.Metrics))
	return err
}
