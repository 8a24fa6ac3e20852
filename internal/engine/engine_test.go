package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestStageOutsideEngineIsNoop(t *testing.T) {
	Stage(context.Background(), "extract") // must not panic
}

func TestWorkerCountDefaults(t *testing.T) {
	if n := (Options{}).workerCount(100); n < 1 {
		t.Errorf("default workers = %d", n)
	}
	if n := (Options{Workers: 16}).workerCount(3); n != 3 {
		t.Errorf("workers should clamp to task count: %d", n)
	}
	if n := (Options{Workers: -1}).workerCount(0); n != 1 {
		t.Errorf("workers floor = %d", n)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics()
	for i := 1; i <= 100; i++ {
		typ := TaskFinished
		if i%10 == 0 {
			typ = TaskFailed
		}
		m.Observe(Event{Type: typ, Elapsed: time.Duration(i) * time.Millisecond,
			Stages: []StageTiming{{Name: "extract", Elapsed: time.Millisecond}},
			Done:   i, Total: 100})
	}
	s := m.Snapshot()
	if s.Done != 100 || s.Failed != 10 || s.Total != 100 {
		t.Fatalf("snapshot counts: %+v", s)
	}
	if s.P50 < 40*time.Millisecond || s.P50 > 60*time.Millisecond {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.P95 < 90*time.Millisecond || s.P95 > 100*time.Millisecond {
		t.Errorf("p95 = %v", s.P95)
	}
	if s.Max != 100*time.Millisecond {
		t.Errorf("max = %v", s.Max)
	}
	if s.Throughput <= 0 {
		t.Errorf("throughput = %v", s.Throughput)
	}
	if s.StageTotals["extract"] != 100*time.Millisecond {
		t.Errorf("stage totals = %v", s.StageTotals)
	}
	out := s.String()
	for _, want := range []string{"100/100", "10 failed", "p50", "extract="} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot string missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsEmpty(t *testing.T) {
	s := NewMetrics().Snapshot()
	if s.Done != 0 || s.P50 != 0 || s.Throughput != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty snapshot should still render")
	}
}

func TestProgressReporting(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf)
	total := 40
	for i := 1; i <= total; i++ {
		typ := TaskFinished
		if i == 7 {
			typ = TaskFailed
		}
		p.Observe(Event{Type: typ, Name: fmt.Sprintf("proj-%d", i), Err: errors.New("bad parse"),
			Done: i, Total: total})
	}
	out := buf.String()
	if !strings.Contains(out, "FAIL proj-7: bad parse") {
		t.Errorf("failure line missing:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("%4d/%d (100%%)", total, total)) {
		t.Errorf("final line missing:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines > 15 {
		t.Errorf("progress too chatty: %d lines", lines)
	}
}

func TestTee(t *testing.T) {
	var a, b int
	obs := Tee(func(Event) { a++ }, nil, func(Event) { b++ })
	obs(Event{})
	obs(Event{})
	if a != 2 || b != 2 {
		t.Errorf("tee counts: %d %d", a, b)
	}
}

func TestPolicyString(t *testing.T) {
	if CollectErrors.String() != "collect-errors" || FailFast.String() != "fail-fast" {
		t.Error("policy names wrong")
	}
	if Policy(99).String() != "unknown" {
		t.Error("unknown policy name")
	}
}
