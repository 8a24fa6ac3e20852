// Determinism acceptance test for the execution engine: the study's
// rendered figures and CSV export must be byte-identical at any worker
// count, and identical to the golden hashes captured from the pre-engine
// serial implementation — parallelism must never perturb a published
// number.
package coevo_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"

	"coevo"
	"coevo/internal/study"
)

// serialGolden maps artifact name to the sha256 of its rendered bytes for
// seed 2023, captured from the serial (pre-engine) implementation.
var serialGolden = map[string]string{
	"figure4": "242acedabfc89f39ec8cfc30a8cf40e887f5676e8ad388fbf3beab4c89060a68",
	"figure5": "74a1c631ce751feeac37f255518ec804ce82b9c9bf31eaaf09e583e10ef67bea",
	"figure6": "36e3c7aee8a50e745d99c88c6ec774255889237ba848c083530b27e6fe6cc3ef",
	"figure7": "58997b440b12f7cd9d48052e3260663eac9351d1ff365eb5bd5b561066e76eb0",
	"figure8": "e63eb92b2cddfbb558487e465c3f030e01a335090b0ce54711032d5574c7d696",
	"csv":     "805d5e7aef103a10162e4dd7a5e1ac63f780ebf482856904b485776770f1464b",
}

// renderArtifacts produces every golden-checked artifact of a dataset.
func renderArtifacts(d *coevo.Dataset) map[string]func(io.Writer) error {
	return map[string]func(io.Writer) error{
		"figure4": func(w io.Writer) error { return coevo.Render(w, d.SynchronicityHistogram(0.10, 5), coevo.Text) },
		"figure5": func(w io.Writer) error { return coevo.Render(w, d.DurationSynchronicityScatter(), coevo.Text) },
		"figure6": func(w io.Writer) error { return coevo.Render(w, d.AdvanceBreakdown(), coevo.Text) },
		"figure7": func(w io.Writer) error { return coevo.Render(w, d.AlwaysAdvance(), coevo.Text) },
		"figure8": func(w io.Writer) error { return coevo.Render(w, d.Attainment(), coevo.Text) },
		"csv":     func(w io.Writer) error { return coevo.Render(w, d, coevo.CSV) },
	}
}

// TestStudyDeterministicWithObserver runs the full study with every
// observability surface live — tracing, debug logging, metrics — and
// checks the rendered artifacts against the same serial golden hashes:
// observation must never perturb a published number.
func TestStudyDeterministicWithObserver(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus study in -short mode")
	}
	observer := coevo.NewObserver(coevo.ObserverOptions{
		Trace:     true,
		LogWriter: io.Discard,
		LogLevel:  slog.LevelDebug,
	})
	opts := study.DefaultOptions()
	opts.Exec.Workers = 8
	opts.Obs = observer
	d, err := study.Run(context.Background(), 2023, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(d.Failures) != 0 {
		t.Fatalf("unexpected failures: %+v", d.Failures)
	}
	for name, write := range renderArtifacts(d) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
		if got != serialGolden[name] {
			t.Errorf("%s: hash %s differs from serial golden %s (observer must not perturb output)", name, got, serialGolden[name])
		}
	}

	// The observer must have captured the run: a loadable Chrome trace
	// with spans for both pipeline halves, and engine metrics for the
	// analyze scope, generation included as its "generate" stage.
	var trace bytes.Buffer
	if err := observer.WriteTrace(&trace); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if observer.SpanCount() < 2*195 {
		t.Errorf("SpanCount = %d, want at least one span per project per pipeline half", observer.SpanCount())
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"run", "generate", "analyze"} {
		if !names[want] {
			t.Errorf("trace lacks the %q span", want)
		}
	}
	var metrics bytes.Buffer
	if err := observer.Metrics().WritePrometheus(&metrics); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, want := range []string{
		`coevo_engine_tasks_total{run="analyze"} 195`,
		`coevo_engine_task_seconds_count{run="analyze"} 195`,
		`coevo_engine_stage_seconds_total{run="analyze",stage="generate"} `,
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics exposition lacks %q", want)
		}
	}
}

// TestStudyDeterministicWithTelemetryServer runs the full study with the
// embedded telemetry server live — /metrics scraped over HTTP mid-run,
// every engine event published to the /progress SSE hub — and checks the
// rendered artifacts against the serial golden hashes: serving telemetry
// must never perturb a published number.
func TestStudyDeterministicWithTelemetryServer(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus study in -short mode")
	}
	observer := coevo.NewObserver(coevo.ObserverOptions{})
	srv, err := coevo.ServeTelemetry(coevo.TelemetryOptions{
		Addr: "127.0.0.1:0", Registry: observer.Metrics(),
	})
	if err != nil {
		t.Fatalf("ServeTelemetry: %v", err)
	}
	defer srv.Shutdown(context.Background())

	opts := study.DefaultOptions()
	opts.Exec.Workers = 8
	opts.Obs = observer
	opts.Exec.OnEvent = func(e coevo.ExecEvent) {
		if e.Scope == "analyze" {
			srv.SetReady(true)
		}
		srv.Publish("project", map[string]any{"name": e.Name, "done": e.Done})
	}
	d, err := study.Run(context.Background(), 2023, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for name, write := range renderArtifacts(d) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
		if got != serialGolden[name] {
			t.Errorf("%s: hash %s differs from serial golden %s (telemetry server must not perturb output)", name, got, serialGolden[name])
		}
	}

	// The server must expose the finished run's engine series over HTTP.
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	exposition, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	if want := `coevo_engine_tasks_total{run="analyze"} 195`; !strings.Contains(string(exposition), want) {
		t.Errorf("live /metrics lacks %q", want)
	}
	resp, err = http.Get(srv.URL() + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz after analysis = %v, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
}

func TestStudyDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus study in -short mode")
	}
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := study.DefaultOptions()
			opts.Exec.Workers = workers
			d, err := study.Run(context.Background(), 2023, opts)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(d.Failures) != 0 {
				t.Fatalf("unexpected failures: %+v", d.Failures)
			}
			if d.Size() != 195 {
				t.Fatalf("Size = %d, want 195", d.Size())
			}
			for name, write := range renderArtifacts(d) {
				var buf bytes.Buffer
				if err := write(&buf); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
				if got != serialGolden[name] {
					t.Errorf("%s: hash %s differs from serial golden %s", name, got, serialGolden[name])
				}
			}
		})
	}
}
