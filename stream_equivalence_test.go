// Streaming acceptance test: the fused generate→analyze stream with
// online figure aggregation must reproduce the serial implementation's
// golden artifact hashes — at one worker and at NumCPU, with a cold and
// a warm cache — while never materializing the corpus or a Dataset.
package coevo_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"testing"

	"coevo"
	"coevo/internal/study"
)

// streamArtifacts renders every golden-checked artifact from the online
// accumulators plus the live CSV capture.
func streamArtifacts(f *coevo.Figures, csv []byte) map[string]func(io.Writer) error {
	return map[string]func(io.Writer) error{
		"figure4": func(w io.Writer) error { return coevo.Render(w, f.Sync.Histogram(), coevo.Text) },
		"figure5": func(w io.Writer) error { return coevo.Render(w, f.Scatter.Points(), coevo.Text) },
		"figure6": func(w io.Writer) error { return coevo.Render(w, f.Advance.Table(), coevo.Text) },
		"figure7": func(w io.Writer) error { return coevo.Render(w, f.Always.Summary(), coevo.Text) },
		"figure8": func(w io.Writer) error { return coevo.Render(w, f.Attainment.Breakdown(), coevo.Text) },
		"csv":     func(w io.Writer) error { _, err := w.Write(csv); return err },
	}
}

// runStreamOnce executes one full streaming study and returns the
// accumulators and the CSV bytes captured row by row.
func runStreamOnce(t *testing.T, workers int, c *coevo.Cache) (*coevo.Figures, []byte) {
	t.Helper()
	figs := coevo.NewFigures()
	var csvBuf bytes.Buffer
	csvW := coevo.NewDatasetCSVWriter(&csvBuf)
	opts := coevo.DefaultOptions()
	opts.Exec.Workers = workers
	opts.Cache = c
	sum, err := coevo.StreamStudy(context.Background(), 2023, opts,
		study.MultiSink(figs, csvW))
	if err != nil {
		t.Fatalf("StreamStudy(workers=%d): %v", workers, err)
	}
	if err := csvW.Close(); err != nil {
		t.Fatalf("csv close: %v", err)
	}
	if sum.Projects != 195 || len(sum.Failures) != 0 {
		t.Fatalf("summary = %d projects, %d failures; want 195, 0", sum.Projects, len(sum.Failures))
	}
	if figs.Count() != 195 {
		t.Fatalf("figures saw %d projects, want 195", figs.Count())
	}
	return figs, csvBuf.Bytes()
}

// checkStreamGolden verifies one streaming run against the serial hashes.
func checkStreamGolden(t *testing.T, label string, figs *coevo.Figures, csv []byte) {
	t.Helper()
	for name, write := range streamArtifacts(figs, csv) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s/%s: %v", label, name, err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
		if got != serialGolden[name] {
			t.Errorf("%s/%s: hash %s differs from serial golden %s", label, name, got, serialGolden[name])
		}
	}
}

// TestStreamingMatchesSerialGolden pins the equivalence guarantee: the
// streaming pipeline's figures and CSV export hash identically to the
// serial goldens at workers=1 and workers=NumCPU, over a cold and then a
// warm content-addressed cache.
func TestStreamingMatchesSerialGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus study in -short mode")
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		c := coevo.NewMemoryCache()
		for _, phase := range []string{"cold", "warm"} {
			label := fmt.Sprintf("workers=%d/%s", workers, phase)
			figs, csv := runStreamOnce(t, workers, c)
			checkStreamGolden(t, label, figs, csv)
			if stats := c.Stats(); phase == "cold" && stats.Misses == 0 {
				t.Errorf("%s: cold cache recorded no misses", label)
			}
		}
		if stats := c.Stats(); stats.Hits == 0 {
			t.Errorf("workers=%d: warm replay recorded no cache hits", workers)
		}
	}
}

// TestStreamingStatisticsMatchBatch checks that the online statistics
// accumulator reproduces the batch Section 7 report for the same seed.
func TestStreamingStatisticsMatchBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus study in -short mode")
	}
	figs, _ := runStreamOnce(t, runtime.NumCPU(), nil)
	streamed, err := figs.Stats.Report(2023)
	if err != nil {
		t.Fatalf("streamed Statistics: %v", err)
	}
	d, err := coevo.RunStudy(2023)
	if err != nil {
		t.Fatalf("batch RunStudy: %v", err)
	}
	batch, err := d.Statistics(2023)
	if err != nil {
		t.Fatalf("batch Statistics: %v", err)
	}
	var sb, ss bytes.Buffer
	if err := coevo.Render(&sb, batch, coevo.Text); err != nil {
		t.Fatal(err)
	}
	if err := coevo.Render(&ss, streamed, coevo.Text); err != nil {
		t.Fatal(err)
	}
	if sb.String() != ss.String() {
		t.Errorf("streamed Section 7 report differs from batch:\n--- batch ---\n%s\n--- streamed ---\n%s", sb.String(), ss.String())
	}
}
