package study

// Online figure aggregation: every figure of the evaluation has an
// accumulator that folds one ProjectResult at a time, so a streaming
// study can aggregate the corpus without ever holding it. The batch
// Dataset methods in figures.go and statistics.go are thin collect-then-
// fold wrappers over these same accumulators — one implementation, two
// consumption styles, byte-identical output.

import (
	"fmt"

	"coevo/internal/stats"
	"coevo/internal/taxa"
)

// Aggregator is an online accumulator over per-project results: Add
// folds one project into O(1)-ish aggregate state (the scatter and
// statistics accumulators keep per-project scalars — a few floats per
// project, never the repository or its history).
type Aggregator interface {
	Add(p *ProjectResult)
}

// Sink consumes the per-project results of a streaming study in corpus
// order. A failing Add aborts the stream.
type Sink interface {
	Add(p *ProjectResult) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(*ProjectResult) error

// Add implements Sink.
func (f SinkFunc) Add(p *ProjectResult) error { return f(p) }

// IndexedSink is a Sink that also wants each result's global corpus
// index. A streaming study delivers results through AddAt when the sink
// supports it, so order-sensitive aggregates (and shard partials, which
// see only a subsequence of the corpus) can key their state by the true
// corpus position rather than arrival order.
type IndexedSink interface {
	Sink
	AddAt(seq int64, p *ProjectResult) error
}

// deliver routes one result to sink, through AddAt when the sink is
// index-aware.
func deliver(sink Sink, seq int64, p *ProjectResult) error {
	if is, ok := sink.(IndexedSink); ok {
		return is.AddAt(seq, p)
	}
	return sink.Add(p)
}

// MultiSink fans each result out to every sink in order, stopping at the
// first error. The returned sink is index-aware: members that implement
// IndexedSink receive the corpus index, plain Sinks just the result.
func MultiSink(sinks ...Sink) Sink {
	return multiSink(sinks)
}

type multiSink []Sink

// Add implements Sink.
func (m multiSink) Add(p *ProjectResult) error {
	for _, s := range m {
		if s == nil {
			continue
		}
		if err := s.Add(p); err != nil {
			return err
		}
	}
	return nil
}

// AddAt implements IndexedSink.
func (m multiSink) AddAt(seq int64, p *ProjectResult) error {
	for _, s := range m {
		if s == nil {
			continue
		}
		if err := deliver(s, seq, p); err != nil {
			return err
		}
	}
	return nil
}

// fold replays a collected dataset through an accumulator — how the
// batch Dataset methods reuse the online implementations.
func fold[A Aggregator](d *Dataset, a A) A {
	for _, p := range d.Projects {
		a.Add(p)
	}
	return a
}

// projectSync resolves a project's θ-synchronicity: the precomputed
// Sync10 for the paper's default θ, a fresh (fallible) evaluation of the
// joint progress otherwise.
func projectSync(p *ProjectResult, theta float64) (float64, bool) {
	if theta == 0.10 {
		return p.Measures.Sync10, true
	}
	s, err := p.Joint.Synchronicity(theta)
	if err != nil {
		return 0, false
	}
	return s, true
}

// SyncHistogramAccumulator builds the Figure 4 θ-synchronicity histogram
// online.
type SyncHistogramAccumulator struct {
	h *SyncHistogram
}

// NewSyncHistogramAccumulator prepares an n-bucket histogram at θ.
func NewSyncHistogramAccumulator(theta float64, n int) *SyncHistogramAccumulator {
	h := &SyncHistogram{Theta: theta, Buckets: make([]int, n), Labels: make([]string, n)}
	for i := 0; i < n; i++ {
		h.Labels[i] = stats.BucketLabel(i, n)
	}
	return &SyncHistogramAccumulator{h: h}
}

// Add implements Aggregator. A project whose θ-synchronicity is
// undefined (degenerate joint series at a non-default θ) is counted in
// Skipped instead of being dropped silently.
func (a *SyncHistogramAccumulator) Add(p *ProjectResult) {
	sync, ok := projectSync(p, a.h.Theta)
	if !ok {
		a.h.Skipped++
		return
	}
	a.h.Buckets[stats.Bucket(sync, len(a.h.Buckets))]++
}

// Histogram returns the aggregate.
func (a *SyncHistogramAccumulator) Histogram() *SyncHistogram { return a.h }

// TaxonSyncHistogramAccumulator builds one Figure 4-style histogram per
// taxon online.
type TaxonSyncHistogramAccumulator struct {
	theta float64
	byTax map[taxa.Taxon]*SyncHistogram
}

// NewTaxonSyncHistogramAccumulator prepares per-taxon n-bucket
// histograms at θ.
func NewTaxonSyncHistogramAccumulator(theta float64, n int) *TaxonSyncHistogramAccumulator {
	byTax := make(map[taxa.Taxon]*SyncHistogram, taxa.Count)
	for _, taxon := range taxa.All() {
		h := &SyncHistogram{Theta: theta, Buckets: make([]int, n), Labels: make([]string, n)}
		for i := 0; i < n; i++ {
			h.Labels[i] = stats.BucketLabel(i, n)
		}
		byTax[taxon] = h
	}
	return &TaxonSyncHistogramAccumulator{theta: theta, byTax: byTax}
}

// Add implements Aggregator.
func (a *TaxonSyncHistogramAccumulator) Add(p *ProjectResult) {
	h := a.byTax[p.Taxon]
	sync, ok := projectSync(p, a.theta)
	if !ok {
		h.Skipped++
		return
	}
	h.Buckets[stats.Bucket(sync, len(h.Buckets))]++
}

// ByTaxon returns the aggregate.
func (a *TaxonSyncHistogramAccumulator) ByTaxon() map[taxa.Taxon]*SyncHistogram { return a.byTax }

// ScatterAccumulator collects the Figure 5 point cloud online. Each
// project contributes one point (name, taxon, two scalars); the
// repositories themselves are not retained. Points carry their corpus
// sequence number so partials from disjoint shards merge back into
// corpus order (see partial.go) — the point cloud is the one figure
// whose rendering is order-sensitive.
type ScatterAccumulator struct {
	points seqVec[ScatterPoint]
}

// NewScatterAccumulator prepares an empty point cloud.
func NewScatterAccumulator() *ScatterAccumulator { return &ScatterAccumulator{} }

// Add implements Aggregator.
func (a *ScatterAccumulator) Add(p *ProjectResult) { a.addAt(int64(len(a.points.seqs)), p) }

// addAt folds one project keyed by its corpus sequence number.
func (a *ScatterAccumulator) addAt(seq int64, p *ProjectResult) {
	a.points.add(seq, ScatterPoint{
		Name:     p.Name,
		Taxon:    p.Taxon,
		Duration: p.DurationMonths,
		Sync:     p.Measures.Sync10,
	})
}

// Points returns the aggregate in fold (= corpus sequence) order.
func (a *ScatterAccumulator) Points() []ScatterPoint { return a.points.vals }

// SyncBandAccumulator counts the Figure 5 finding online: long-lived
// projects inside vs outside a synchronicity band.
type SyncBandAccumulator struct {
	thresholdMonths int
	lo, hi          float64
	inside, outside int
}

// NewSyncBandAccumulator prepares the band counter.
func NewSyncBandAccumulator(thresholdMonths int, lo, hi float64) *SyncBandAccumulator {
	return &SyncBandAccumulator{thresholdMonths: thresholdMonths, lo: lo, hi: hi}
}

// Add implements Aggregator.
func (a *SyncBandAccumulator) Add(p *ProjectResult) {
	if p.DurationMonths <= a.thresholdMonths {
		return
	}
	if p.Measures.Sync10 >= a.lo && p.Measures.Sync10 <= a.hi {
		a.inside++
	} else {
		a.outside++
	}
}

// Band returns the aggregate counts.
func (a *SyncBandAccumulator) Band() (inside, outside int) { return a.inside, a.outside }

// AdvanceAccumulator builds the Figure 6 advance-breakdown table online.
type AdvanceAccumulator struct {
	n                      int
	srcCounts, timeCounts  []int
	blankSource, blankTime int
	total                  int
}

// NewAdvanceAccumulator prepares the ten-range breakdown.
func NewAdvanceAccumulator() *AdvanceAccumulator {
	const n = 10
	return &AdvanceAccumulator{n: n, srcCounts: make([]int, n), timeCounts: make([]int, n)}
}

// Add implements Aggregator.
func (a *AdvanceAccumulator) Add(p *ProjectResult) {
	a.total++
	if !p.Measures.AdvanceDefined {
		a.blankSource++
		a.blankTime++
		return
	}
	a.srcCounts[stats.Bucket(p.Measures.AdvanceSource, a.n)]++
	a.timeCounts[stats.Bucket(p.Measures.AdvanceTime, a.n)]++
}

// Table renders the aggregate in the paper's presentation order (highest
// range first, with cumulative shares from the top).
func (a *AdvanceAccumulator) Table() *AdvanceTable {
	t := &AdvanceTable{Total: a.total, BlankSource: a.blankSource, BlankTime: a.blankTime}
	var srcCum, timeCum float64
	for i := a.n - 1; i >= 0; i-- {
		srcPct := pct(a.srcCounts[i], t.Total)
		timePct := pct(a.timeCounts[i], t.Total)
		srcCum += srcPct
		timeCum += timePct
		t.Rows = append(t.Rows, AdvanceRow{
			Label:       advanceLabel(i, a.n),
			SourceCount: a.srcCounts[i], SourcePct: srcPct, SourceCum: srcCum,
			TimeCount: a.timeCounts[i], TimePct: timePct, TimeCum: timeCum,
		})
	}
	return t
}

// AlwaysAdvanceAccumulator builds the Figure 7 counts online.
type AlwaysAdvanceAccumulator struct {
	cells              []AlwaysAdvanceCell
	time, source, both int
	total              int
}

// NewAlwaysAdvanceAccumulator prepares the per-taxon cells.
func NewAlwaysAdvanceAccumulator() *AlwaysAdvanceAccumulator {
	cells := make([]AlwaysAdvanceCell, taxa.Count)
	for i, taxon := range taxa.All() {
		cells[i].Taxon = taxon
	}
	return &AlwaysAdvanceAccumulator{cells: cells}
}

// Add implements Aggregator.
func (a *AlwaysAdvanceAccumulator) Add(p *ProjectResult) {
	a.total++
	cell := &a.cells[int(p.Taxon)]
	cell.Projects++
	if p.Measures.AlwaysAheadOfTime {
		cell.Time++
		a.time++
	}
	if p.Measures.AlwaysAheadOfSource {
		cell.Source++
		a.source++
	}
	if p.Measures.AlwaysAheadOfBoth {
		cell.Both++
		a.both++
	}
}

// Summary returns the aggregate.
func (a *AlwaysAdvanceAccumulator) Summary() *AlwaysAdvanceSummary {
	cells := make([]AlwaysAdvanceCell, len(a.cells))
	copy(cells, a.cells)
	return &AlwaysAdvanceSummary{
		PerTaxon: cells,
		Time:     a.time, Source: a.source, Both: a.both,
		Total: a.total,
	}
}

// AttainmentAccumulator builds the Figure 8 breakdown online.
type AttainmentAccumulator struct {
	alphas, rangeEdges []float64
	counts             [][]int
	total              int
}

// NewAttainmentAccumulator prepares the breakdown for the given α
// thresholds over the given lifetime ranges.
func NewAttainmentAccumulator(alphas, rangeEdges []float64) *AttainmentAccumulator {
	counts := make([][]int, len(alphas))
	for i := range counts {
		counts[i] = make([]int, len(rangeEdges))
	}
	return &AttainmentAccumulator{alphas: alphas, rangeEdges: rangeEdges, counts: counts}
}

// Add implements Aggregator.
func (a *AttainmentAccumulator) Add(p *ProjectResult) {
	a.total++
	for ai, alpha := range a.alphas {
		frac, err := p.Joint.AttainmentFraction(alpha)
		if err != nil {
			continue
		}
		for ri, edge := range a.rangeEdges {
			if frac <= edge+1e-12 {
				a.counts[ai][ri]++
				break
			}
		}
	}
}

// Breakdown returns the aggregate.
func (a *AttainmentAccumulator) Breakdown() *AttainmentBreakdown {
	counts := make([][]int, len(a.counts))
	for i, row := range a.counts {
		counts[i] = append([]int(nil), row...)
	}
	return &AttainmentBreakdown{Alphas: a.alphas, RangeEdges: a.rangeEdges, Counts: counts, Total: a.total}
}

// LocalityAccumulator builds the change-locality summary online. It
// keeps two floats per qualifying project (medians need the full
// distributions), never the histories.
type LocalityAccumulator struct {
	minTables                  int
	topShares, unchangedShares []float64
}

// NewLocalityAccumulator prepares the summary over projects with at
// least minTables tables.
func NewLocalityAccumulator(minTables int) *LocalityAccumulator {
	return &LocalityAccumulator{minTables: minTables}
}

// Add implements Aggregator.
func (a *LocalityAccumulator) Add(p *ProjectResult) {
	loc := p.Locality
	if loc.Tables < a.minTables || loc.TotalChanges == 0 {
		return
	}
	a.topShares = append(a.topShares, loc.TopShare)
	a.unchangedShares = append(a.unchangedShares, loc.UnchangedShare)
}

// Summary returns the aggregate.
func (a *LocalityAccumulator) Summary() *LocalitySummary {
	return &LocalitySummary{
		MedianTopShare:       stats.Median(a.topShares),
		MedianUnchangedShare: stats.Median(a.unchangedShares),
		Projects:             len(a.topShares),
	}
}

// statsRow is the per-project scalar record StatsAccumulator keeps: one
// small fixed-size struct per project instead of a dozen parallel
// vectors. The test-input vectors are materialized in row order at
// Report time, so the Section 7 output is byte-identical to the old
// append-per-attribute fold — and rows keyed by corpus sequence number
// make the accumulator mergeable across shards (see partial.go).
type statsRow struct {
	taxon               taxa.Taxon
	durationMonths      int
	sync5, sync10       float64
	advTime, advSource  float64
	advanceDefined      bool
	aheadTime           bool
	aheadSource         bool
	aheadBoth           bool
	attain75            float64
	totalSchemaActivity int
	fileUpdates         int
}

// StatsAccumulator folds the per-project scalars the Section 7 tests
// need — attribute vectors, per-taxon groups, contingency counts,
// correlation pairs — without retaining the projects themselves.
type StatsAccumulator struct {
	// rows hold one scalar record per project, in corpus sequence order.
	rows seqVec[statsRow]
}

// NewStatsAccumulator prepares the Section 7 state.
func NewStatsAccumulator() *StatsAccumulator {
	return &StatsAccumulator{}
}

// Add implements Aggregator.
func (a *StatsAccumulator) Add(p *ProjectResult) { a.addAt(int64(len(a.rows.seqs)), p) }

// addAt folds one project keyed by its corpus sequence number.
func (a *StatsAccumulator) addAt(seq int64, p *ProjectResult) {
	a.rows.add(seq, statsRow{
		taxon:               p.Taxon,
		durationMonths:      p.DurationMonths,
		sync5:               p.Measures.Sync5,
		sync10:              p.Measures.Sync10,
		advTime:             p.Measures.AdvanceTime,
		advSource:           p.Measures.AdvanceSource,
		advanceDefined:      p.Measures.AdvanceDefined,
		aheadTime:           p.Measures.AlwaysAheadOfTime,
		aheadSource:         p.Measures.AlwaysAheadOfSource,
		aheadBoth:           p.Measures.AlwaysAheadOfBoth,
		attain75:            p.Measures.Attain75,
		totalSchemaActivity: p.TotalSchemaActivity,
		fileUpdates:         p.FileUpdates,
	})
}

// Report runs the Section 7 tests over the folded state. seed drives the
// Monte-Carlo Fisher tests, exactly as Dataset.Statistics. The test
// inputs are materialized from the rows in row (= corpus) order, so the
// report matches the pre-refactor per-attribute fold exactly.
func (a *StatsAccumulator) Report(seed int64) (*StatsReport, error) {
	rows := a.rows.vals
	if len(rows) < 10 {
		return nil, fmt.Errorf("study: statistics need a populated dataset, have %d projects", len(rows))
	}
	n := len(rows)
	attrs := map[string][]float64{
		"duration_months":       make([]float64, 0, n),
		"sync_10":               make([]float64, 0, n),
		"sync_5":                make([]float64, 0, n),
		"advance_over_time":     {},
		"advance_over_source":   {},
		"attainment_75":         make([]float64, 0, n),
		"total_schema_activity": make([]float64, 0, n),
		"project_file_updates":  make([]float64, 0, n),
	}
	syncGroups := make([][]float64, taxa.Count)
	attainGroups := make([][]float64, taxa.Count)
	timeTbl := stats.NewTable(taxa.Count, 2)
	srcTbl := stats.NewTable(taxa.Count, 2)
	bothTbl := stats.NewTable(taxa.Count, 2)
	var s5, s10, advT, advS []float64
	for i := range rows {
		row := &rows[i]
		attrs["duration_months"] = append(attrs["duration_months"], float64(row.durationMonths))
		attrs["sync_10"] = append(attrs["sync_10"], row.sync10)
		attrs["sync_5"] = append(attrs["sync_5"], row.sync5)
		if row.advanceDefined {
			attrs["advance_over_time"] = append(attrs["advance_over_time"], row.advTime)
			attrs["advance_over_source"] = append(attrs["advance_over_source"], row.advSource)
		}
		attrs["attainment_75"] = append(attrs["attainment_75"], row.attain75)
		attrs["total_schema_activity"] = append(attrs["total_schema_activity"], float64(row.totalSchemaActivity))
		attrs["project_file_updates"] = append(attrs["project_file_updates"], float64(row.fileUpdates))

		ti := int(row.taxon)
		syncGroups[ti] = append(syncGroups[ti], row.sync10)
		attainGroups[ti] = append(attainGroups[ti], row.attain75)

		mark := func(t stats.Table, ahead bool) {
			col := 1
			if ahead {
				col = 0
			}
			t[ti][col]++
		}
		mark(timeTbl, row.aheadTime)
		mark(srcTbl, row.aheadSource)
		mark(bothTbl, row.aheadBoth)

		s5 = append(s5, row.sync5)
		s10 = append(s10, row.sync10)
		if row.advanceDefined {
			advT = append(advT, row.advTime)
			advS = append(advS, row.advSource)
		}
	}

	r := &StatsReport{Normality: map[string]stats.ShapiroWilkResult{}, TaxaOrder: taxa.All()}
	for name, xs := range attrs {
		res, err := stats.ShapiroWilk(xs)
		if err != nil {
			return nil, fmt.Errorf("study: shapiro(%s): %w", name, err)
		}
		r.Normality[name] = res
	}

	var err error
	if r.SyncByTaxon, err = stats.KruskalWallis(syncGroups...); err != nil {
		return nil, fmt.Errorf("study: kruskal sync: %w", err)
	}
	if r.AttainByTaxon, err = stats.KruskalWallis(attainGroups...); err != nil {
		return nil, fmt.Errorf("study: kruskal attain: %w", err)
	}

	if r.TimeLagChi2, err = stats.ChiSquareIndependence(timeTbl); err != nil {
		return nil, fmt.Errorf("study: chi2 time lag: %w", err)
	}
	if r.SourceLagChi2, err = stats.ChiSquareIndependence(srcTbl); err != nil {
		return nil, fmt.Errorf("study: chi2 source lag: %w", err)
	}
	if r.BothLagChi2, err = stats.ChiSquareIndependence(bothTbl); err != nil {
		return nil, fmt.Errorf("study: chi2 both lag: %w", err)
	}
	if r.TimeLagFisher, err = stats.FisherExactMC(timeTbl, fisherIterations, seed); err != nil {
		return nil, fmt.Errorf("study: fisher time lag: %w", err)
	}
	if r.SourceLagFisher, err = stats.FisherExactMC(srcTbl, fisherIterations, seed+1); err != nil {
		return nil, fmt.Errorf("study: fisher source lag: %w", err)
	}
	if r.BothLagFisher, err = stats.FisherExactMC(bothTbl, fisherIterations, seed+2); err != nil {
		return nil, fmt.Errorf("study: fisher both lag: %w", err)
	}

	if r.SyncThetaCorr, err = stats.KendallTau(s5, s10); err != nil {
		return nil, fmt.Errorf("study: kendall sync: %w", err)
	}
	if r.AdvanceCorr, err = stats.KendallTau(advT, advS); err != nil {
		return nil, fmt.Errorf("study: kendall advance: %w", err)
	}
	return r, nil
}

// Figures bundles the aggregates a study renders behind one Sink: the
// paper's five figures, the Section 7 statistics and the parse-health
// report (report.StudySections), all fed one streamed ProjectResult at a
// time. It is what `coevo study`, the job service, shard workers and the
// benchmarks aggregate into. Views no section renders, such as the
// per-taxon histograms and the change-locality summary, are Dataset
// methods over their own accumulators.
type Figures struct {
	Sync       *SyncHistogramAccumulator // Figure 4 (θ=0.10, 5 buckets)
	Scatter    *ScatterAccumulator       // Figure 5
	Band       *SyncBandAccumulator      // Figure 5 long-project band
	Advance    *AdvanceAccumulator       // Figure 6
	Always     *AlwaysAdvanceAccumulator // Figure 7
	Attainment *AttainmentAccumulator    // Figure 8
	Stats      *StatsAccumulator         // Section 7
	Health     *ParseHealthAccumulator   // parse-health report
	count      int
}

// NewFigures prepares the study's aggregates with the paper's parameters
// (θ=0.10 five-bucket histogram, 60-month/[0.2,0.8] band, α ∈ {50, 75,
// 80, 100}%).
func NewFigures() *Figures {
	return &Figures{
		Sync:       NewSyncHistogramAccumulator(0.10, 5),
		Scatter:    NewScatterAccumulator(),
		Band:       NewSyncBandAccumulator(60, 0.2, 0.8),
		Advance:    NewAdvanceAccumulator(),
		Always:     NewAlwaysAdvanceAccumulator(),
		Attainment: NewAttainmentAccumulator([]float64{0.50, 0.75, 0.80, 1.00}, []float64{0.2, 0.5, 0.8, 1.0}),
		Stats:      NewStatsAccumulator(),
		Health:     NewParseHealthAccumulator(),
	}
}

// Add implements Sink, folding p into every aggregate. Standalone use
// numbers projects by arrival order; a streaming study routes through
// AddAt with the true corpus index instead (see IndexedSink).
func (f *Figures) Add(p *ProjectResult) error {
	return f.AddAt(int64(f.count), p)
}

// AddAt implements IndexedSink, folding p into every aggregate keyed by
// its corpus sequence number. The order-sensitive aggregates (scatter
// points, statistics rows) record seq so partials built from disjoint
// shards merge back into exactly the sequential fold; the commutative
// counters ignore it.
func (f *Figures) AddAt(seq int64, p *ProjectResult) error {
	f.count++
	f.Sync.Add(p)
	f.Scatter.addAt(seq, p)
	f.Band.Add(p)
	f.Advance.Add(p)
	f.Always.Add(p)
	f.Attainment.Add(p)
	f.Stats.addAt(seq, p)
	f.Health.Add(p)
	return nil
}

// Count is how many projects were folded in.
func (f *Figures) Count() int { return f.count }
