package main

import (
	"strings"
	"testing"
)

// fakeResults builds a results file with two runs per workload whose
// values sit well inside every bound.
func fakeResults(spec *benchSpec, nproc int) *resultsFile {
	r := &resultsFile{Provenance: provenance{NumCPU: nproc}}
	for _, w := range spec.Workloads {
		for i := 0; i < 2; i++ {
			run := &runResult{Workload: w.Name, Attempted: 600, Metrics: map[string]float64{}, Layers: map[string]float64{}}
			for _, m := range spec.EndToEnd {
				run.Metrics[m.Name] = 100 + float64(i)
			}
			for _, m := range spec.PerLayer {
				run.Layers[m.Name] = 10 + float64(i)/10
			}
			r.Runs = append(r.Runs, run)
		}
	}
	return r
}

func verdicts(pairs []pair) map[string]int {
	out := map[string]int{}
	for _, p := range pairs {
		out[p.Verdict]++
	}
	return out
}

func TestCompareIdenticalPasses(t *testing.T) {
	spec := testSpec(t)
	pairs, err := compareResults(spec, fakeResults(spec, 2), fakeResults(spec, 2))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(spec.Workloads) * (len(spec.EndToEnd) + len(spec.PerLayer) + 1); len(pairs) != want {
		t.Errorf("%d pairs, want %d", len(pairs), want)
	}
	if v := verdicts(pairs); v[unchanged] != len(pairs) {
		t.Errorf("identical inputs: verdicts %v, want all unchanged", v)
	}
}

// TestCompareFlagsOneLayer fabricates a 1.5× in one per-layer metric on
// one workload while every end-to-end metric stays put.
func TestCompareFlagsOneLayer(t *testing.T) {
	spec := testSpec(t)
	cur := fakeResults(spec, 2)
	for _, r := range cur.runsOf("study-warm") {
		r.Layers["sqlddl.parse_s"] *= 1.5
	}
	pairs, err := compareResults(spec, fakeResults(spec, 2), cur)
	if err != nil {
		t.Fatal(err)
	}
	var flagged []string
	for _, p := range pairs {
		if p.Verdict != unchanged {
			flagged = append(flagged, p.Workload+"/"+p.Metric+"="+p.Verdict)
		}
	}
	if strings.Join(flagged, ",") != "study-warm/sqlddl.parse_s=regressed" {
		t.Errorf("flagged %v, want only study-warm/sqlddl.parse_s regressed", flagged)
	}
}

func TestCompareFlagsFailedRatio(t *testing.T) {
	spec := testSpec(t)
	cur := fakeResults(spec, 2)
	cur.runsOf("jobs-mixed")[0].Failed = 1
	pairs, err := compareResults(spec, fakeResults(spec, 2), cur)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.Metric == "failed_ratio" && p.Workload == "jobs-mixed" && p.Verdict != regressed {
			t.Errorf("failed_ratio %g -> %g judged %s, want regressed", p.Base, p.New, p.Verdict)
		}
	}
	if v := verdicts(pairs); v[regressed] != 1 {
		t.Errorf("verdicts %v, want exactly one regression", v)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "latency_ms", Better: "lower"}
	higher := metricSpec{Name: "throughput_per_s", Better: "higher"}
	steady := []float64{100, 100, 100, 100}
	noisy := []float64{60, 100, 140, 180}
	bounded := rule{bound: 0.1, spread: true}
	for _, c := range []struct {
		m        metricSpec
		r        rule
		base, nu []float64
		want     string
	}{
		{lower, bounded, steady, []float64{105, 105, 105, 105}, unchanged},
		{lower, bounded, steady, []float64{115, 115, 115, 115}, regressed},
		{lower, bounded, steady, []float64{85, 85, 85, 85}, better},
		{higher, bounded, steady, []float64{85, 85, 85, 85}, regressed},
		{lower, bounded, steady, noisy, unresolved},
		// Set-up time is judged on medians alone.
		{lower, rule{bound: 0.1}, steady, noisy, regressed},
		// Changes and spreads within the floor count as none.
		{lower, rule{bound: 0.1, floor: 100, spread: true}, steady, noisy, unchanged},
		{lower, rule{bound: 0.1, floor: 10, spread: true}, steady, []float64{115, 115, 115, 115}, regressed},
	} {
		if got := judge("w", c.m, c.r, c.base, c.nu).Verdict; got != c.want {
			t.Errorf("%s %+v %v -> %v: %s, want %s", c.m.Better, c.r, c.base, c.nu, got, c.want)
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	spec := testSpec(t)
	if _, err := compareResults(spec, fakeResults(spec, 2), fakeResults(spec, 8)); err == nil {
		t.Error("results from a 2-CPU and an 8-CPU host compared without complaint")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
}
