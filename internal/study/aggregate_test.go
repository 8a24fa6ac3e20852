package study

import (
	"errors"
	"reflect"
	"testing"

	"coevo/internal/coevolution"
	"coevo/internal/corpus"
	"coevo/internal/taxa"
)

// brokenJointResult is a project whose joint series is degenerate: the
// default-θ measure exists (computed during analysis), but recomputing
// synchronicity at any other θ fails.
func brokenJointResult(name string, taxon taxa.Taxon) *ProjectResult {
	return &ProjectResult{
		Name:     name,
		Taxon:    taxon,
		Measures: &coevolution.Measures{Sync10: 0.5},
		Joint:    &coevolution.JointProgress{},
	}
}

// TestSyncHistogramSkipped pins the boundary the old implementation
// silently crossed: a project whose synchronicity is undefined at a
// non-default θ must be counted in Skipped, not silently dropped.
func TestSyncHistogramSkipped(t *testing.T) {
	d := smallDataset(t, 8, 3)
	n := d.Size()
	d.Projects = append(d.Projects, brokenJointResult("broken/joint", taxa.Moderate))

	// The default θ reuses the stored measure: nothing skips, the broken
	// project lands in a bucket like any other.
	h10 := d.SynchronicityHistogram(0.10, 5)
	if h10.Skipped != 0 {
		t.Errorf("θ=0.10 Skipped = %d, want 0", h10.Skipped)
	}
	if sum := bucketSum(h10); sum != n+1 {
		t.Errorf("θ=0.10 bucket total = %d, want %d", sum, n+1)
	}

	// A non-default θ recomputes from the joint series: the degenerate
	// project is skipped and accounted for.
	h5 := d.SynchronicityHistogram(0.05, 5)
	if h5.Skipped != 1 {
		t.Errorf("θ=0.05 Skipped = %d, want 1", h5.Skipped)
	}
	if sum := bucketSum(h5); sum != n {
		t.Errorf("θ=0.05 bucket total = %d, want %d (broken project excluded)", sum, n)
	}
	if sum := bucketSum(h5) + h5.Skipped; sum != d.Size() {
		t.Errorf("buckets + skipped = %d, want every project accounted (%d)", sum, d.Size())
	}

	// An out-of-range θ is undefined for every project.
	hBad := d.SynchronicityHistogram(1.5, 5)
	if hBad.Skipped != d.Size() || bucketSum(hBad) != 0 {
		t.Errorf("θ=1.5: buckets %d / skipped %d, want 0 / %d", bucketSum(hBad), hBad.Skipped, d.Size())
	}

	// The per-taxon variant accounts for the skip in the right group.
	byTaxon := d.SynchronicityHistogramByTaxon(0.05, 5)
	if got := byTaxon[taxa.Moderate].Skipped; got != 1 {
		t.Errorf("per-taxon θ=0.05 MODERATE Skipped = %d, want 1", got)
	}
	for taxon, h := range byTaxon {
		if taxon != taxa.Moderate && h.Skipped != 0 {
			t.Errorf("per-taxon θ=0.05 %s Skipped = %d, want 0", taxon, h.Skipped)
		}
	}
}

func bucketSum(h *SyncHistogram) int {
	sum := 0
	for _, c := range h.Buckets {
		sum += c
	}
	return sum
}

// TestAggregatorsMatchDatasetMethods checks the fold equivalence: feeding
// the online accumulators one project at a time reproduces every batch
// Dataset aggregation exactly.
func TestAggregatorsMatchDatasetMethods(t *testing.T) {
	d := smallDataset(t, 11, 4)
	figs := NewFigures()
	for _, p := range d.Projects {
		if err := figs.Add(p); err != nil {
			t.Fatalf("Figures.Add: %v", err)
		}
	}
	if figs.Count() != d.Size() {
		t.Fatalf("Figures.Count = %d, want %d", figs.Count(), d.Size())
	}
	if got, want := figs.Sync.Histogram(), d.SynchronicityHistogram(0.10, 5); !reflect.DeepEqual(got, want) {
		t.Errorf("Sync histogram: %+v != %+v", got, want)
	}
	if got, want := figs.Scatter.Points(), d.DurationSynchronicityScatter(); !reflect.DeepEqual(got, want) {
		t.Errorf("scatter points differ")
	}
	gotIn, gotOut := figs.Band.Band()
	wantIn, wantOut := d.LongProjectSyncBand(60, 0.2, 0.8)
	if gotIn != wantIn || gotOut != wantOut {
		t.Errorf("band = (%d, %d), want (%d, %d)", gotIn, gotOut, wantIn, wantOut)
	}
	if got, want := figs.Advance.Table(), d.AdvanceBreakdown(); !reflect.DeepEqual(got, want) {
		t.Errorf("advance table differs")
	}
	if got, want := figs.Always.Summary(), d.AlwaysAdvance(); !reflect.DeepEqual(got, want) {
		t.Errorf("always-advance summary differs")
	}
	if got, want := figs.Attainment.Breakdown(), d.Attainment(); !reflect.DeepEqual(got, want) {
		t.Errorf("attainment breakdown differs")
	}
	gotStats, gotErr := figs.Stats.Report(11)
	wantStats, wantErr := d.Statistics(11)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("stats errors diverge: %v vs %v", gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(gotStats, wantStats) {
		t.Errorf("Section 7 reports differ:\n%+v\n%+v", gotStats, wantStats)
	}
}

// TestSinkComposition covers the sink plumbing: MultiSink fan-out, nil
// tolerance, first-error stop, and the DatasetSink collector.
func TestSinkComposition(t *testing.T) {
	d := smallDataset(t, 8, 2)
	collect := &DatasetSink{}
	var seen []string
	record := SinkFunc(func(p *ProjectResult) error {
		seen = append(seen, p.Name)
		return nil
	})
	ms := MultiSink(collect, nil, record)
	for _, p := range d.Projects {
		if err := ms.Add(p); err != nil {
			t.Fatalf("MultiSink.Add: %v", err)
		}
	}
	if got := collect.Dataset().Size(); got != d.Size() {
		t.Errorf("DatasetSink collected %d, want %d", got, d.Size())
	}
	if len(seen) != d.Size() {
		t.Errorf("SinkFunc saw %d, want %d", len(seen), d.Size())
	}
	boom := errors.New("sink full")
	var after int
	failing := MultiSink(
		SinkFunc(func(*ProjectResult) error { return boom }),
		SinkFunc(func(*ProjectResult) error { after++; return nil }),
	)
	if err := failing.Add(d.Projects[0]); !errors.Is(err, boom) {
		t.Errorf("MultiSink error = %v, want %v", err, boom)
	}
	if after != 0 {
		t.Errorf("MultiSink ran %d sinks after the failing one", after)
	}
}

// TestStreamCorpusMatchesBatch runs the fused stream over a small corpus
// and checks it delivers exactly the batch dataset, in order.
func TestStreamCorpusMatchesBatch(t *testing.T) {
	cfg := corpus.DefaultConfig(8)
	profiles := corpus.DefaultProfiles()
	for i := range profiles {
		profiles[i].Count = 2
		if profiles[i].DurationMonths[1] > 48 {
			profiles[i].DurationMonths[1] = 48
		}
	}
	cfg.Profiles = profiles

	batch, err := AnalyzeCorpus(smallCorpus(t, 8, 2), DefaultOptions())
	if err != nil {
		t.Fatalf("AnalyzeCorpus: %v", err)
	}
	sink := &DatasetSink{}
	sum, err := StreamCorpus(t.Context(), corpus.NewSource(cfg), sink, DefaultOptions())
	if err != nil {
		t.Fatalf("StreamCorpus: %v", err)
	}
	streamed := sink.Dataset()
	if sum.Projects != batch.Size() || streamed.Size() != batch.Size() {
		t.Fatalf("streamed %d projects (summary %d), want %d", streamed.Size(), sum.Projects, batch.Size())
	}
	for i := range batch.Projects {
		if !reflect.DeepEqual(batch.Projects[i], streamed.Projects[i]) {
			t.Errorf("project %d differs between batch and stream", i)
		}
	}
}
