// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark measures the aggregation that produces one
// artifact over the full 195-project corpus (built once and cached), and
// reports the reproduced headline numbers as custom metrics so a bench run
// doubles as a reproduction record:
//
//	go test -bench=. -benchmem
//
// The ablation benchmarks exercise the design choices DESIGN.md calls out:
// the month chronon, the θ acceptance band, the files-updated change unit,
// and birth counting.
package coevo_test

import (
	"context"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"coevo"
	"coevo/internal/coevolution"
	"coevo/internal/corpus"
	"coevo/internal/engine"
	"coevo/internal/heartbeat"
	"coevo/internal/history"
	"coevo/internal/obs"
	"coevo/internal/stats"
	"coevo/internal/study"
	"coevo/internal/taxa"
)

const benchSeed = 2023

var (
	benchOnce    sync.Once
	benchDataset *coevo.Dataset
	benchCorpus  []*coevo.CorpusProject
)

// dataset builds (once) and returns the full study dataset.
func dataset(b *testing.B) *coevo.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		projects, err := coevo.GenerateCorpus(coevo.DefaultCorpusConfig(benchSeed))
		if err != nil {
			panic(err)
		}
		benchCorpus = projects
		d, err := coevo.AnalyzeCorpus(projects, coevo.DefaultOptions())
		if err != nil {
			panic(err)
		}
		benchDataset = d
	})
	return benchDataset
}

// BenchmarkFig3JointDiagrams renders one joint progress diagram per taxon
// (the Figure 1/3 views).
func BenchmarkFig3JointDiagrams(b *testing.B) {
	d := dataset(b)
	exemplars := map[taxa.Taxon]*coevo.ProjectResult{}
	for _, p := range d.Projects {
		if _, ok := exemplars[p.Taxon]; !ok {
			exemplars[p.Taxon] = p
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range exemplars {
			if err := coevo.Render(io.Discard, coevo.JointProgressFigure{Title: p.Name, Progress: p.Joint}, coevo.Text); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(exemplars)), "taxa_rendered")
}

// BenchmarkFig4SynchronicityHistogram regenerates the Figure 4 breakdown
// of projects per 10%-synchronicity range.
func BenchmarkFig4SynchronicityHistogram(b *testing.B) {
	d := dataset(b)
	var h *study.SyncHistogram
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h = d.SynchronicityHistogram(0.10, 5)
	}
	b.ReportMetric(float64(h.Buckets[4]), "projects_in_80_100") // paper: "only ~20% hand-in-hand"
	b.ReportMetric(float64(h.Buckets[0]), "projects_in_0_20")
}

// BenchmarkFig5DurationScatter regenerates the Figure 5 scatter and its
// headline finding: projects older than 60 months gravitate away from
// extreme synchronicities.
func BenchmarkFig5DurationScatter(b *testing.B) {
	d := dataset(b)
	var inside, outside int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.DurationSynchronicityScatter()
		inside, outside = d.LongProjectSyncBand(60, 0.2, 0.8)
	}
	b.ReportMetric(float64(inside), "long_projects_mid_band")
	b.ReportMetric(float64(outside), "long_projects_extremes")
}

// BenchmarkFig6AdvanceTable regenerates the Figure 6 life-percentage-of-
// advance table. Paper: 41% (source) / 51% (time) in the [0.9-1.0] range;
// 71% / 78% cumulative at 0.5.
func BenchmarkFig6AdvanceTable(b *testing.B) {
	d := dataset(b)
	var t *study.AdvanceTable
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = d.AdvanceBreakdown()
	}
	b.ReportMetric(100*t.Rows[0].SourcePct, "pct_source_top_range")
	b.ReportMetric(100*t.Rows[0].TimePct, "pct_time_top_range")
	b.ReportMetric(100*t.Rows[4].SourceCum, "pct_source_cum_at_0.5")
	b.ReportMetric(100*t.Rows[4].TimeCum, "pct_time_cum_at_0.5")
}

// BenchmarkFig7AlwaysAdvance regenerates the Figure 7 always-in-advance
// counts. Paper: time 80 (41%), source 57 (29%), both 55 (28%).
func BenchmarkFig7AlwaysAdvance(b *testing.B) {
	d := dataset(b)
	var s *study.AlwaysAdvanceSummary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = d.AlwaysAdvance()
	}
	b.ReportMetric(float64(s.Time), "always_ahead_of_time")
	b.ReportMetric(float64(s.Source), "always_ahead_of_source")
	b.ReportMetric(float64(s.Both), "always_ahead_of_both")
}

// BenchmarkFig8Attainment regenerates the Figure 8 attainment breakdown.
// Paper: 98 projects attain 75% within the first 20% of life; 94 attain
// 80%; 60 attain 100%; 62 attain 100% only after 80% of life.
func BenchmarkFig8Attainment(b *testing.B) {
	d := dataset(b)
	var att *study.AttainmentBreakdown
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		att = d.Attainment()
	}
	b.ReportMetric(float64(att.Counts[1][0]), "attain75_first20pct")
	b.ReportMetric(float64(att.Counts[2][0]), "attain80_first20pct")
	b.ReportMetric(float64(att.Counts[3][0]), "attain100_first20pct")
	b.ReportMetric(float64(att.Counts[3][3]), "attain100_after80pct")
}

// BenchmarkSec7Normality runs the Shapiro-Wilk battery. Paper: every
// attribute rejects normality with p < 0.007.
func BenchmarkSec7Normality(b *testing.B) {
	d := dataset(b)
	xs := make([]float64, 0, d.Size())
	for _, p := range d.Projects {
		xs = append(xs, p.Measures.Sync10)
	}
	var res stats.ShapiroWilkResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = stats.ShapiroWilk(xs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.P, "shapiro_p_sync10")
}

// BenchmarkSec7KruskalSynchronicity tests taxon over 10%-synchronicity.
// Paper: p = 0.003 with the focused-shot taxa at the highest medians.
func BenchmarkSec7KruskalSynchronicity(b *testing.B) {
	d := dataset(b)
	groups := kwGroups(d, func(p *coevo.ProjectResult) float64 { return p.Measures.Sync10 })
	var res stats.KruskalWallisResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = stats.KruskalWallis(groups...)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.P, "kw_sync_p")
	b.ReportMetric(res.GroupMedians[int(taxa.FocusedShotFrozen)], "median_sync_fsf")
}

// BenchmarkSec7KruskalAttainment tests taxon over 75%-attainment. Paper:
// p = 0.006, frozen taxa attain earliest, ACTIVE latest (median 0.47).
func BenchmarkSec7KruskalAttainment(b *testing.B) {
	d := dataset(b)
	groups := kwGroups(d, func(p *coevo.ProjectResult) float64 { return p.Measures.Attain75 })
	var res stats.KruskalWallisResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = stats.KruskalWallis(groups...)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.P, "kw_attain_p")
	b.ReportMetric(res.GroupMedians[int(taxa.Active)], "median_attain_active")
}

func kwGroups(d *coevo.Dataset, pick func(*coevo.ProjectResult) float64) [][]float64 {
	byTaxon := d.ByTaxon()
	groups := make([][]float64, 0, taxa.Count)
	for _, taxon := range taxa.All() {
		var g []float64
		for _, p := range byTaxon[taxon] {
			g = append(g, pick(p))
		}
		groups = append(groups, g)
	}
	return groups
}

// BenchmarkSec7LagTests runs the taxon × always-in-advance contingency
// tests. Paper: time lag n.s. (p ≈ 0.07); source and both significant.
func BenchmarkSec7LagTests(b *testing.B) {
	d := dataset(b)
	var rep *coevo.StatsReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = d.Statistics(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.TimeLagFisher.P, "fisher_time_p")
	b.ReportMetric(rep.SourceLagFisher.P, "fisher_source_p")
	b.ReportMetric(rep.BothLagFisher.P, "fisher_both_p")
}

// BenchmarkSec7Correlations computes the two Kendall correlations the
// paper quotes: τ(5%-sync, 10%-sync) = 0.67 and τ(advance-over-time,
// advance-over-source) = 0.75.
func BenchmarkSec7Correlations(b *testing.B) {
	d := dataset(b)
	var s5, s10, at, as []float64
	for _, p := range d.Projects {
		s5 = append(s5, p.Measures.Sync5)
		s10 = append(s10, p.Measures.Sync10)
		if p.Measures.AdvanceDefined {
			at = append(at, p.Measures.AdvanceTime)
			as = append(as, p.Measures.AdvanceSource)
		}
	}
	var sync, adv stats.KendallResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		sync, err = stats.KendallTau(s5, s10)
		if err != nil {
			b.Fatal(err)
		}
		adv, err = stats.KendallTau(at, as)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sync.Tau, "tau_sync5_vs_sync10")
	b.ReportMetric(adv.Tau, "tau_advtime_vs_advsource")
}

// BenchmarkAblationTheta sweeps the θ acceptance band, the design choice
// behind RQ1's definition of "hand-in-hand".
func BenchmarkAblationTheta(b *testing.B) {
	d := dataset(b)
	thetas := []float64{0.02, 0.05, 0.10, 0.20}
	var last *study.SyncHistogram
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, theta := range thetas {
			last = d.SynchronicityHistogram(theta, 5)
		}
	}
	b.ReportMetric(float64(last.Buckets[4]), "projects_top_bucket_theta20")
}

// BenchmarkAblationChronon re-buckets one project's histories at week,
// month and quarter granularity and compares the synchronicity measure —
// the paper argues the month is the right common chronon.
func BenchmarkAblationChronon(b *testing.B) {
	d := dataset(b)
	// Use the longest project for a meaningful re-bucketing.
	target := d.Projects[0]
	for _, p := range d.Projects {
		if p.DurationMonths > target.DurationMonths {
			target = p
		}
	}
	var repo *coevo.CorpusProject
	for _, p := range benchCorpus {
		if p.Name == target.Name {
			repo = p
		}
	}
	if repo == nil {
		b.Fatal("corpus project not found")
	}
	sh, err := history.ExtractSchemaHistory(repo.Repo, repo.DDLPath, history.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	ph, err := history.ExtractProjectHistory(repo.Repo)
	if err != nil {
		b.Fatal(err)
	}
	chronons := []int{7, 30, 90} // days per bucket
	syncs := make([]float64, len(chronons))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ci, days := range chronons {
			j, err := jointWithChronon(sh, ph, days)
			if err != nil {
				b.Fatal(err)
			}
			s, err := j.Synchronicity(0.10)
			if err != nil {
				b.Fatal(err)
			}
			syncs[ci] = s
		}
	}
	b.ReportMetric(syncs[0], "sync10_week")
	b.ReportMetric(syncs[1], "sync10_month")
	b.ReportMetric(syncs[2], "sync10_quarter")
}

// jointWithChronon rebuilds the joint progress with an arbitrary chronon
// of `days` by mapping event times onto synthetic month indices.
func jointWithChronon(sh *history.SchemaHistory, ph *history.ProjectHistory, days int) (*coevolution.JointProgress, error) {
	rescale := func(events []heartbeat.Event) []heartbeat.Event {
		out := make([]heartbeat.Event, len(events))
		epoch := events[0].When
		for i, e := range events {
			bucket := int(e.When.Sub(epoch).Hours() / 24 / float64(days))
			out[i] = heartbeat.Event{When: heartbeat.Month(bucket).Time(), Amount: e.Amount}
		}
		return out
	}
	shb, err := heartbeat.FromEvents(rescale(sh.Events()))
	if err != nil {
		return nil, err
	}
	phb, err := heartbeat.FromEvents(rescale(ph.Events()))
	if err != nil {
		return nil, err
	}
	return coevolution.New(phb, shb)
}

// BenchmarkAblationChangeUnit compares the files-updated unit of source
// change against a commit-count unit and a line-churn unit — the
// construct-validity concern the paper's threats section discusses and the
// "more precise unit of change" its future work asks for.
func BenchmarkAblationChangeUnit(b *testing.B) {
	d := dataset(b)
	var tauCommits, tauLines stats.KendallResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var fileSync, commitSync, lineSync []float64
		for _, pr := range d.Projects {
			fileSync = append(fileSync, pr.Measures.Sync10)
		}
		for _, cp := range benchCorpus {
			sc, err := syncWithUnit(cp, unitCommits)
			if err != nil {
				b.Fatal(err)
			}
			commitSync = append(commitSync, sc)
			sl, err := syncWithUnit(cp, unitLines)
			if err != nil {
				b.Fatal(err)
			}
			lineSync = append(lineSync, sl)
		}
		var err error
		tauCommits, err = stats.KendallTau(fileSync, commitSync)
		if err != nil {
			b.Fatal(err)
		}
		tauLines, err = stats.KendallTau(fileSync, lineSync)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tauCommits.Tau, "tau_files_vs_commits_unit")
	b.ReportMetric(tauLines.Tau, "tau_files_vs_lines_unit")
}

// changeUnit selects the project-activity unit for syncWithUnit.
type changeUnit int

const (
	unitCommits changeUnit = iota
	unitLines
)

// syncWithUnit measures 10%-synchronicity with the project heartbeat
// expressed in the chosen unit: one per commit, or the commit's line
// churn.
func syncWithUnit(cp *coevo.CorpusProject, unit changeUnit) (float64, error) {
	sh, err := history.ExtractSchemaHistory(cp.Repo, cp.DDLPath, history.DefaultOptions())
	if err != nil {
		return 0, err
	}
	var phb *heartbeat.Heartbeat
	switch unit {
	case unitLines:
		ph, err := history.ExtractProjectHistoryWithLines(cp.Repo)
		if err != nil {
			return 0, err
		}
		phb, err = ph.LineHeartbeat()
		if err != nil {
			return 0, err
		}
	default:
		ph, err := history.ExtractProjectHistory(cp.Repo)
		if err != nil {
			return 0, err
		}
		events := make([]heartbeat.Event, 0, ph.CommitCount())
		for _, c := range ph.Commits {
			events = append(events, heartbeat.Event{When: c.When, Amount: 1})
		}
		phb, err = heartbeat.FromEvents(events)
		if err != nil {
			return 0, err
		}
	}
	shb, err := sh.Heartbeat()
	if err != nil {
		return 0, err
	}
	j, err := coevolution.New(phb, shb)
	if err != nil {
		return 0, err
	}
	return j.Synchronicity(0.10)
}

// BenchmarkAblationBirthCounting compares the study's birth-counting
// convention against the raw pairwise heartbeat (birth excluded).
func BenchmarkAblationBirthCounting(b *testing.B) {
	dataset(b) // ensure corpus exists
	var withBirth, withoutBirth int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		withBirth, withoutBirth = 0, 0
		for _, cp := range benchCorpus {
			on, err := history.ExtractSchemaHistory(cp.Repo, cp.DDLPath, history.Options{CountBirth: true})
			if err != nil {
				b.Fatal(err)
			}
			off, err := history.ExtractSchemaHistory(cp.Repo, cp.DDLPath, history.Options{CountBirth: false})
			if err != nil {
				b.Fatal(err)
			}
			withBirth += on.TotalActivity()
			withoutBirth += off.TotalActivity()
		}
	}
	b.ReportMetric(float64(withBirth), "total_activity_with_birth")
	b.ReportMetric(float64(withoutBirth), "total_activity_without_birth")
}

// BenchmarkPipelineSmallCorpus measures the full generate-and-analyze
// pipeline end to end on a reduced corpus.
func BenchmarkPipelineSmallCorpus(b *testing.B) {
	cfg := coevo.DefaultCorpusConfig(benchSeed)
	profiles := corpus.DefaultProfiles()
	for i := range profiles {
		profiles[i].Count = 2
		if profiles[i].DurationMonths[1] > 36 {
			profiles[i].DurationMonths[1] = 36
		}
	}
	cfg.Profiles = profiles
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		projects, err := coevo.GenerateCorpus(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := coevo.AnalyzeCorpus(projects, coevo.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudyWarmCache measures the content-addressed cache's payoff on
// the full 195-project analysis. The cold sub-benchmark analyzes into a
// fresh store every iteration; the warm sub-benchmark re-analyzes over a
// pre-populated store through a fresh Cache instance (so disk reads and
// decode are on the clock, exactly like a second run of the tool). The
// warm case also reports cold_over_warm_x, the headline speedup.
func BenchmarkStudyWarmCache(b *testing.B) {
	dataset(b) // build benchCorpus once
	analyze := func(b *testing.B, c *coevo.Cache) {
		opts := coevo.DefaultOptions()
		opts.Cache = c
		d, err := coevo.AnalyzeCorpus(benchCorpus, opts)
		if err != nil {
			b.Fatal(err)
		}
		if d.Size() != 195 {
			b.Fatalf("Size = %d, want 195", d.Size())
		}
	}
	newCache := func(b *testing.B, dir string) *coevo.Cache {
		c, err := coevo.NewCache(coevo.CacheOptions{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := newCache(b, b.TempDir())
			b.StartTimer()
			analyze(b, c)
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		start := time.Now()
		analyze(b, newCache(b, dir)) // populate the store; doubles as the cold reference
		coldDur := time.Since(start)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := newCache(b, dir)
			b.StartTimer()
			analyze(b, c)
		}
		warmNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(coldDur.Nanoseconds())/warmNs, "cold_over_warm_x")
	})
}

// BenchmarkStudyStreaming measures the fused generate→analyze stream over
// the full 195-project corpus with online figure aggregation, against the
// same stream collected into a Dataset (RunStudyContext). Each
// sub-benchmark reports its sampled live-heap high-water mark
// (peak_heap_mib, watermark reset after a forced GC each iteration); run
// with -benchmem for the allocation totals. The pair quantifies what
// holding every result costs.
func BenchmarkStudyStreaming(b *testing.B) {
	measure := func(b *testing.B, run func(opts coevo.Options) int) uint64 {
		b.Helper()
		proc := &obs.ProcStats{}
		opts := coevo.DefaultOptions()
		opts.Exec.OnEvent = func(e coevo.ExecEvent) {
			if e.Type == engine.TaskFinished || e.Type == engine.TaskFailed {
				proc.Sample()
			}
		}
		runtime.GC()
		proc.Reset()
		if n := run(opts); n != 195 {
			b.Fatalf("analyzed %d projects, want 195", n)
		}
		proc.Sample()
		return proc.Peak()
	}
	b.Run("stream", func(b *testing.B) {
		var peak uint64
		for i := 0; i < b.N; i++ {
			peak = measure(b, func(opts coevo.Options) int {
				sum, err := coevo.StreamStudy(context.Background(), benchSeed, opts, coevo.NewFigures())
				if err != nil {
					b.Fatal(err)
				}
				return sum.Projects
			})
		}
		b.ReportMetric(float64(peak)/(1<<20), "peak_heap_mib")
	})
	b.Run("batch", func(b *testing.B) {
		var peak uint64
		for i := 0; i < b.N; i++ {
			peak = measure(b, func(opts coevo.Options) int {
				d, err := coevo.RunStudyContext(context.Background(), benchSeed, opts)
				if err != nil {
					b.Fatal(err)
				}
				return d.Size()
			})
		}
		b.ReportMetric(float64(peak)/(1<<20), "peak_heap_mib")
	})
}

// BenchmarkLocalityFinding computes the related-work locality numbers over
// the corpus: prior work reports 60-90% of changes in 20% of tables and
// ~40% of tables never changing.
func BenchmarkLocalityFinding(b *testing.B) {
	d := dataset(b)
	var loc *study.LocalitySummary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc = d.ChangeLocality(5)
	}
	b.ReportMetric(100*loc.MedianTopShare, "pct_changes_in_top20pct_tables")
	b.ReportMetric(100*loc.MedianUnchangedShare, "pct_tables_never_changed")
	b.ReportMetric(float64(loc.Projects), "projects_measured")
}
