package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// The verdicts compare gives a (metric, workload) pair.
const (
	better     = "better"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// layerBound is the share by which a per-layer metric may worsen before
// compare flags it; BENCHMARK.json gives bounds to end-to-end metrics
// only.
const layerBound = 0.25

// layerFloorSeconds is the smallest change or spread of a per-layer time
// compare judges. Layers below it (fold, codec, render: about a
// millisecond each) vary by more than any bound between identical runs,
// and a change this small moves no end-to-end time by 1%.
const layerFloorSeconds = 0.010

// pair is the comparison of one metric on one workload.
type pair struct {
	Workload, Metric, Unit string
	Bound                  float64
	Base, New              float64 // medians of the samples
	BaseSpread, NewSpread  float64 // interquartile distance over median
	Verdict                string
}

// rule is how one metric is judged.
type rule struct {
	bound float64 // relative change tolerated
	floor float64 // absolute change or spread never judged, in the metric's unit
	// spread false judges medians alone: set-up time, whose spread the
	// benchmark's definition leaves unbounded.
	spread bool
}

// compareResults judges every (metric, workload) pair of spec present in
// both files: end-to-end metrics against their bounds, per-layer metrics
// against layerBound, and each workload's failed share, which may not
// grow at all. A file contributes one value per run of a workload, so
// spreads are run-to-run; compare files of several runs (run -runs N).
// Files from hosts with different CPU counts are not comparable.
func compareResults(spec *benchSpec, base, cur *resultsFile) ([]pair, error) {
	if base.Provenance.NumCPU != cur.Provenance.NumCPU {
		return nil, fmt.Errorf("not comparable: base ran on %d CPUs, new on %d", base.Provenance.NumCPU, cur.Provenance.NumCPU)
	}
	var pairs []pair
	for _, w := range spec.Workloads {
		b, c := base.runsOf(w.Name), cur.runsOf(w.Name)
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			r := rule{bound: *m.Bound, spread: m.Name != mSetup}
			pairs = append(pairs, judge(w.Name, m, r, samples(b, m.Name), samples(c, m.Name)))
		}
		for _, m := range spec.PerLayer {
			r := rule{bound: layerBound, spread: true}
			if m.Unit == "s" {
				r.floor = layerFloorSeconds
			}
			bs, cs := samples(b, m.Name), samples(c, m.Name)
			if len(bs) > 0 && len(cs) > 0 {
				pairs = append(pairs, judge(w.Name, m, r, bs, cs))
			}
		}
		pairs = append(pairs, judgeFailed(w.Name, b, c))
	}
	return pairs, nil
}

// samples returns one metric's value in each run: the median of its
// repetitions, or the traced run's per-layer value.
func samples(runs []*runResult, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.value(metric); ok {
			out = append(out, v)
		}
	}
	return out
}

// judge compares medians: a pair is unresolved when either side's spread
// exceeds the bound, regressed when the new median is worse by more than
// the bound, better when it is better by more than the bound, and
// unchanged otherwise. Spreads and changes within r.floor count as none.
func judge(workload string, m metricSpec, r rule, base, cur []float64) pair {
	p := pair{Workload: workload, Metric: m.Name, Unit: m.Unit, Bound: r.bound,
		Base: median(base), New: median(cur), BaseSpread: spread(base), NewSpread: spread(cur)}
	worse := p.New - p.Base
	if m.Better == "higher" {
		worse = -worse
	}
	wide := func(values []float64, rel float64) bool {
		q1, q3 := quartiles(values)
		return r.spread && rel > r.bound && q3-q1 > r.floor
	}
	switch {
	case len(base) == 0 || len(cur) == 0:
		p.Verdict = unresolved
	case wide(base, p.BaseSpread) || wide(cur, p.NewSpread):
		p.Verdict = unresolved
	case math.Abs(worse) <= r.floor:
		p.Verdict = unchanged
	case p.Base == 0 && worse > 0:
		p.Verdict = regressed
	case p.Base == 0 && worse < 0:
		p.Verdict = better
	case worse/math.Abs(p.Base) > r.bound:
		p.Verdict = regressed
	case -worse/math.Abs(p.Base) > r.bound:
		p.Verdict = better
	default:
		p.Verdict = unchanged
	}
	return p
}

// judgeFailed compares the share of failed projects or jobs, which has no
// tolerance: any increase is a regression.
func judgeFailed(workload string, base, cur []*runResult) pair {
	ratio := func(runs []*runResult) float64 {
		attempted, failed := 0, 0
		for _, r := range runs {
			attempted += r.Attempted
			failed += r.Failed
		}
		return float64(failed) / float64(max(attempted, 1))
	}
	p := pair{Workload: workload, Metric: "failed_ratio", Unit: "ratio", Base: ratio(base), New: ratio(cur), Verdict: unchanged}
	switch {
	case p.New > p.Base:
		p.Verdict = regressed
	case p.New < p.Base:
		p.Verdict = better
	}
	return p
}

// compareCmd implements `compare base.json new.json`. It exits 0 when no
// pair regressed or is unresolved, 1 when some did, 2 on usage errors and
// results that are not comparable.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: compare base.json new.json")
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	base, err := readResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	cur, err := readResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	pairs, err := compareResults(spec, base, cur)
	if err != nil {
		fmt.Fprintln(stdout, err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tnew\tchange\tbase IQR\tnew IQR\tbound\tverdict\t")
	counts := map[string]int{}
	for _, p := range pairs {
		counts[p.Verdict]++
		change := 0.0
		if p.Base != 0 {
			change = (p.New - p.Base) / math.Abs(p.Base)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\t\n",
			p.Workload, p.Metric, p.Unit, p.Base, p.New, 100*change, 100*p.BaseSpread, 100*p.NewSpread, 100*p.Bound, p.Verdict)
	}
	tw.Flush()
	fmt.Fprintf(stdout, "%d pairs: %d better, %d unchanged, %d regressed, %d unresolved\n",
		len(pairs), counts[better], counts[unchanged], counts[regressed], counts[unresolved])
	if counts[regressed]+counts[unresolved] > 0 {
		return 1
	}
	return 0
}
