package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Metrics aggregates a run's event stream into a latency/throughput
// snapshot. Wire Observe in as (or inside) Options.OnEvent.
type Metrics struct {
	mu        sync.Mutex
	start     time.Time
	last      time.Time
	total     int
	done      int
	failed    int
	latencies []time.Duration
	stages    map[string]time.Duration
}

// NewMetrics returns a collector; the throughput clock starts now.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now(), stages: map[string]time.Duration{}}
}

// Observe consumes one event.
func (m *Metrics) Observe(e Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total = e.Total
	switch e.Type {
	case TaskFinished, TaskFailed:
		if e.Type == TaskFailed {
			m.failed++
		}
		m.done++
		m.last = time.Now()
		m.latencies = append(m.latencies, e.Elapsed)
		for _, s := range e.Stages {
			m.stages[s.Name] += s.Elapsed
		}
	}
}

// Snapshot is a point-in-time metrics summary.
type Snapshot struct {
	Total  int // tasks in the run
	Done   int // finished + failed
	Failed int
	// Elapsed is the wall time from collector creation to the last
	// observed completion (or zero when nothing completed).
	Elapsed time.Duration
	// P50, P95 and Max summarize the per-task latency distribution.
	P50, P95, Max time.Duration
	// Throughput is completed tasks per second of Elapsed.
	Throughput float64
	// StageTotals sums the per-stage timings across all tasks.
	StageTotals map[string]time.Duration
}

// Snapshot summarizes everything observed so far.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{Total: m.total, Done: m.done, Failed: m.failed,
		StageTotals: make(map[string]time.Duration, len(m.stages))}
	for k, v := range m.stages {
		s.StageTotals[k] = v
	}
	if len(m.latencies) == 0 {
		return s
	}
	lat := append([]time.Duration(nil), m.latencies...)
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	s.P50 = quantile(lat, 0.50)
	s.P95 = quantile(lat, 0.95)
	s.Max = lat[len(lat)-1]
	s.Elapsed = m.last.Sub(m.start)
	if secs := s.Elapsed.Seconds(); secs > 0 {
		s.Throughput = float64(m.done) / secs
	}
	return s
}

// quantile reads the q-quantile from an ascending latency slice using the
// nearest-rank method.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// String renders the snapshot as a compact single-block report, the
// -metrics output of the CLI.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tasks %d/%d done, %d failed, %.1f tasks/s over %v\n",
		s.Done, s.Total, s.Failed, s.Throughput, s.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "task latency: p50 %v  p95 %v  max %v",
		s.P50.Round(time.Microsecond), s.P95.Round(time.Microsecond), s.Max.Round(time.Microsecond))
	if len(s.StageTotals) > 0 {
		names := make([]string, 0, len(s.StageTotals))
		for name := range s.StageTotals {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteString("\nstage totals:")
		for _, name := range names {
			fmt.Fprintf(&b, " %s=%v", name, s.StageTotals[name].Round(time.Microsecond))
		}
	}
	return b.String()
}

// Tee fans one event stream out to several observers, preserving the
// engine's serialized delivery order.
func Tee(observers ...func(Event)) func(Event) {
	return func(e Event) {
		for _, obs := range observers {
			if obs != nil {
				obs(e)
			}
		}
	}
}
