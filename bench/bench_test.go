package main

import (
	"context"
	"encoding/json"
	"io"
	"regexp"
	"testing"
)

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatalf("load BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSpecMatchesWorkloads pins BENCHMARK.json to the workloads the
// program runs, and every metric name to [A-Za-z0-9_.-].
func TestSpecMatchesWorkloads(t *testing.T) {
	spec := testSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]", m.Name)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at tiny size — 12-project
// studies, one repetition, two seconds of jobs at a low rate — traced,
// and checks every metric of BENCHMARK.json comes out with its unit and
// the study workloads agree on the figures.
func TestSmokeAllWorkloads(t *testing.T) {
	spec := testSpec(t)
	hashes := map[string]string{}
	for _, w := range workloads {
		cfg := defaultConfig()
		cfg.PerTaxon = 2
		cfg.Seconds = 0 // a single repetition
		cfg.WorkDir = t.TempDir()
		cfg.TraceDir = t.TempDir()
		if !w.study {
			cfg.Seconds = 2
			cfg.JobsRate = 4
		}
		res, err := runWorkload(context.Background(), w, &cfg, true, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, res.Attempted, res.Failed)
		}
		if w.study {
			hashes[w.name] = res.FiguresSHA256
		}
		for _, metrics := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			line, err := resultLine(res, metrics)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			var out struct {
				Correct   bool
				Attempted int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatalf("%s: result line %q: %v", w.name, line, err)
			}
			for _, m := range metrics {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", w.name, m.Name, got, m.Unit)
				}
			}
		}
	}
	if err := sameFigures(hashes); err != nil {
		t.Error(err)
	}
}
