package study

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"coevo/internal/corpus"
)

// sequentialFigures folds the dataset's results in corpus order with
// their global indices — the reference every partition must reproduce.
func sequentialFigures(t *testing.T, d *Dataset) *Figures {
	t.Helper()
	figs := NewFigures()
	for i, p := range d.Projects {
		if err := figs.AddAt(int64(i), p); err != nil {
			t.Fatalf("AddAt(%d): %v", i, err)
		}
	}
	return figs
}

// foldAt folds d's first len(seqs) projects, the i-th under corpus index
// seqs[i], the way a shard worker folds the indices it owns.
func foldAt(t *testing.T, d *Dataset, seqs ...int64) *Figures {
	t.Helper()
	figs := NewFigures()
	for i, seq := range seqs {
		if err := figs.AddAt(seq, d.Projects[i]); err != nil {
			t.Fatalf("AddAt(%d): %v", seq, err)
		}
	}
	return figs
}

// TestPartialFiguresMergeReproducesSequential is the merge-law property
// test: for random disjoint partitions of the corpus index space and
// random merge orders, folding each part into its own PartialFigures and
// merging the sealed partials reproduces the sequential fold exactly —
// asserted on the versioned codec bytes, the strictest equality the
// accumulators expose.
func TestPartialFiguresMergeReproducesSequential(t *testing.T) {
	d := smallDataset(t, 11, 4)
	want := sequentialFigures(t, d).EncodePartial()
	rng := rand.New(rand.NewSource(42))

	for trial := 0; trial < 20; trial++ {
		// Random partition: each result lands in one of n parts; with
		// n possibly exceeding the corpus some parts stay empty, which
		// exercises merging zero-value partials too.
		n := 1 + rng.Intn(6)
		parts := make([]*Figures, n)
		for i := range parts {
			parts[i] = NewFigures()
		}
		for i, p := range d.Projects {
			k := rng.Intn(n)
			if err := parts[k].AddAt(int64(i), p); err != nil {
				t.Fatalf("trial %d: AddAt: %v", trial, err)
			}
		}

		// Seal and reload every partial through the codec before merging,
		// exactly as the coordinator receives them.
		sealed := make([]*PartialFigures, n)
		for i, part := range parts {
			dec, err := DecodePartialFigures(part.EncodePartial())
			if err != nil {
				t.Fatalf("trial %d: decode partial %d: %v", trial, i, err)
			}
			sealed[i] = dec
		}

		// Random merge order.
		order := rng.Perm(n)
		merged := NewFigures()
		for _, k := range order {
			if err := merged.Merge(sealed[k]); err != nil {
				t.Fatalf("trial %d: merge: %v", trial, err)
			}
		}
		if got := merged.EncodePartial(); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, order=%v): merged encoding diverges from sequential",
				trial, n, order)
		}
	}
}

// TestPartialFiguresResidueClassPartition pins the production partition
// shape — shard k takes indices ≡ k (mod n) — and checks the merged
// report-facing outputs, not just the codec bytes.
func TestPartialFiguresResidueClassPartition(t *testing.T) {
	d := smallDataset(t, 7, 3)
	ref := sequentialFigures(t, d)

	const n = 3
	parts := make([]*Figures, n)
	for i := range parts {
		parts[i] = NewFigures()
	}
	for i, p := range d.Projects {
		if err := parts[i%n].AddAt(int64(i), p); err != nil {
			t.Fatalf("AddAt: %v", err)
		}
	}
	merged := NewFigures()
	for k := 0; k < n; k++ {
		if err := merged.Merge(parts[k]); err != nil {
			t.Fatalf("merge shard %d: %v", k, err)
		}
	}

	if merged.Count() != ref.Count() {
		t.Fatalf("count = %d, want %d", merged.Count(), ref.Count())
	}
	if got, want := merged.Sync.Histogram(), ref.Sync.Histogram(); !reflect.DeepEqual(got, want) {
		t.Errorf("sync histogram differs: %+v != %+v", got, want)
	}
	if got, want := merged.Scatter.Points(), ref.Scatter.Points(); !reflect.DeepEqual(got, want) {
		t.Errorf("scatter points differ")
	}
	if got, want := merged.Health.Summary(), ref.Health.Summary(); !reflect.DeepEqual(got, want) {
		t.Errorf("parse health differs: %+v != %+v", got, want)
	}
	gotStats, gotErr := merged.Stats.Report(7)
	wantStats, wantErr := ref.Stats.Report(7)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("stats errors diverge: %v vs %v", gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(gotStats, wantStats) {
		t.Errorf("Section 7 reports differ")
	}
}

// TestPartialFiguresMergeRejectsConfigMismatch: partials folded under
// different accumulator configurations must refuse to merge rather than
// silently mix populations.
func TestPartialFiguresMergeRejectsConfigMismatch(t *testing.T) {
	a := NewFigures()
	b := NewFigures()
	b.Sync = NewSyncHistogramAccumulator(0.20, 5)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging mismatched sync thresholds should fail")
	}
	c := NewFigures()
	c.Band = NewSyncBandAccumulator(24, 0.2, 0.8)
	if err := a.Merge(c); err == nil {
		t.Fatal("merging mismatched band configs should fail")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("merging nil should be a no-op, got %v", err)
	}
}

// TestDecodePartialFiguresRejectsCorruption: the codec fails loudly on
// version skew and truncation instead of folding garbage.
func TestDecodePartialFiguresRejectsCorruption(t *testing.T) {
	d := smallDataset(t, 5, 2)
	enc := sequentialFigures(t, d).EncodePartial()

	if _, err := DecodePartialFigures(nil); err == nil {
		t.Error("empty payload should fail")
	}
	bad := append([]byte("xx"), enc[2:]...)
	if _, err := DecodePartialFigures(bad); err == nil {
		t.Error("corrupt magic should fail")
	}
	if _, err := DecodePartialFigures(enc[:len(enc)/2]); err == nil {
		t.Error("truncated payload should fail")
	}
	trailing := append(append([]byte{}, enc...), 0x01)
	if _, err := DecodePartialFigures(trailing); err == nil {
		t.Error("trailing bytes should fail")
	}
}

// TestDecodePartialFiguresRejectsUntrustedShapes: a partial is input
// from another process, so the decoder refuses what no fold produces — a
// v1 payload, sequence-keyed vectors out of corpus order, and vectors
// that do not hold one entry per project — instead of letting the merge
// build misordered or duplicated rows from it.
func TestDecodePartialFiguresRejectsUntrustedShapes(t *testing.T) {
	d := smallDataset(t, 5, 2)
	if _, err := DecodePartialFigures(foldAt(t, d, 0, 3, 6).EncodePartial()); err != nil {
		t.Fatalf("an ascending fold must decode: %v", err)
	}

	v1 := bytes.Replace(foldAt(t, d, 0, 3, 6).EncodePartial(), []byte(partialFiguresMagic), []byte("coevo/partial-figures/v1"), 1)
	if _, err := DecodePartialFigures(v1); err == nil {
		t.Error("a v1 payload decoded")
	}
	if _, err := DecodePartialFigures(foldAt(t, d, 0, 6, 3).EncodePartial()); err == nil {
		t.Error("a partial folded out of corpus order decoded")
	}
	if _, err := DecodePartialFigures(foldAt(t, d, 0, 3, 3).EncodePartial()); err == nil {
		t.Error("a partial holding one corpus index twice decoded")
	}
	short := foldAt(t, d, 0, 3, 6)
	short.Stats.rows.seqs, short.Stats.rows.vals = short.Stats.rows.seqs[:2], short.Stats.rows.vals[:2]
	if _, err := DecodePartialFigures(short.EncodePartial()); err == nil {
		t.Error("a partial with fewer statistics rows than projects decoded")
	}
	extra := foldAt(t, d, 0, 3, 6)
	extra.count++
	if _, err := DecodePartialFigures(extra.EncodePartial()); err == nil {
		t.Error("a partial with more projects than scatter points decoded")
	}
}

// TestDecodePartialFiguresRejectsMiscountedCounters: every counter a
// fold adds once per project must count the partial's projects, and no
// counter a fold adds at most once may exceed them. The first case once
// decoded: a 2-project partial with 1,000 added to its advance total,
// parse-health project count and first histogram bucket merged into a
// 3-project Figures, which then reported 1,005 projects in Figure 6 and
// the parse-health report while Count() read 5.
func TestDecodePartialFiguresRejectsMiscountedCounters(t *testing.T) {
	d := smallDataset(t, 5, 2)
	whole := foldAt(t, d, 0, 2, 4)
	part, err := DecodePartialFigures(foldAt(t, d, 1, 3).EncodePartial())
	if err != nil {
		t.Fatalf("a fold's partial must decode: %v", err)
	}
	if err := whole.Merge(part); err != nil {
		t.Fatalf("disjoint partials must merge: %v", err)
	}
	if got := []int{whole.Count(), whole.Advance.Table().Total, whole.Health.Summary().Projects}; !reflect.DeepEqual(got, []int{5, 5, 5}) {
		t.Errorf("merged count, Figure 6 total, parse-health projects = %v, want 5 each", got)
	}

	skews := []struct {
		name string
		skew func(f *Figures)
	}{
		{"advance total, parse-health projects and first bucket", func(f *Figures) {
			f.Advance.total += 1000
			f.Health.summary.Projects += 1000
			f.Sync.h.Buckets[0] += 1000
		}},
		{"advance total", func(f *Figures) { f.Advance.total += 1000 }},
		{"parse-health projects", func(f *Figures) { f.Health.summary.Projects += 1000 }},
		{"first bucket", func(f *Figures) { f.Sync.h.Buckets[0] += 1000 }},
		{"skipped", func(f *Figures) { f.Sync.h.Skipped++ }},
		{"a negative bucket the next one balances", func(f *Figures) {
			f.Sync.h.Buckets[1] += f.Sync.h.Buckets[0] + 1000
			f.Sync.h.Buckets[0] = -1000
		}},
		{"band", func(f *Figures) { f.Band.inside += 1000 }},
		{"blank on one advance axis", func(f *Figures) { f.Advance.blankTime++ }},
		{"advance range", func(f *Figures) { f.Advance.srcCounts[0]++ }},
		{"always-in-advance cell", func(f *Figures) { f.Always.cells[0].Projects += 1000 }},
		{"always-in-advance total", func(f *Figures) { f.Always.total++ }},
		{"always ahead of time", func(f *Figures) { f.Always.time++ }},
		{"attainment total", func(f *Figures) { f.Attainment.total += 1000 }},
		{"attainment row", func(f *Figures) { f.Attainment.counts[0][0] += 1000 }},
		{"clean projects", func(f *Figures) { f.Health.summary.CleanProjects += 1000 }},
	}
	for _, tc := range skews {
		f := foldAt(t, d, 1, 3)
		tc.skew(f)
		if _, err := DecodePartialFigures(f.EncodePartial()); err == nil {
			t.Errorf("%s: a miscounted partial decoded", tc.name)
		}
	}
}

// TestPartialFiguresMergeRefusesWithoutChange: two partials that fold
// the same corpus index refuse to merge, as do partials under different
// configurations, and a refused merge leaves the receiver as it was.
func TestPartialFiguresMergeRefusesWithoutChange(t *testing.T) {
	d := smallDataset(t, 5, 2)
	f := foldAt(t, d, 0, 2, 4)
	before := f.EncodePartial()
	if err := f.Merge(foldAt(t, d, 1, 4)); err == nil {
		t.Error("partials sharing corpus index 4 merged")
	}
	banded := foldAt(t, d, 1, 3)
	banded.Band = NewSyncBandAccumulator(24, 0.2, 0.8)
	banded.Band.Add(d.Projects[0])
	if err := f.Merge(banded); err == nil {
		t.Error("partials with different band configurations merged")
	}
	if !bytes.Equal(f.EncodePartial(), before) {
		t.Error("a refused merge changed the receiver")
	}
	if err := f.Merge(foldAt(t, d, 1, 3)); err != nil {
		t.Fatalf("disjoint partials must merge: %v", err)
	}
}

// FuzzPartialFiguresCodec hammers the decoder with arbitrary bytes: it
// must never panic, and any payload it accepts must re-encode into a
// stable canonical form (decode∘encode is idempotent).
func FuzzPartialFiguresCodec(f *testing.F) {
	seedFigs := NewFigures()
	f.Add([]byte{})
	f.Add(seedFigs.EncodePartial())
	d, err := AnalyzeCorpus(smallCorpusF(5, 2), DefaultOptions())
	if err == nil {
		figs := NewFigures()
		for i, p := range d.Projects {
			figs.AddAt(int64(i), p) //nolint:errcheck // seeding only
		}
		f.Add(figs.EncodePartial())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodePartialFigures(data)
		if err != nil {
			return
		}
		canon := dec.EncodePartial()
		again, err := DecodePartialFigures(canon)
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v", err)
		}
		if !bytes.Equal(again.EncodePartial(), canon) {
			t.Fatal("decode∘encode is not idempotent")
		}
	})
}

// smallCorpusF is smallCorpus without the testing.T, for fuzz seeding.
func smallCorpusF(seed int64, perTaxon int) []*corpus.Project {
	cfg := corpus.DefaultConfig(seed)
	profiles := corpus.DefaultProfiles()
	for i := range profiles {
		profiles[i].Count = perTaxon
		if profiles[i].DurationMonths[1] > 48 {
			profiles[i].DurationMonths[1] = 48
		}
	}
	cfg.Profiles = profiles
	projects, err := corpus.Generate(cfg)
	if err != nil {
		return nil
	}
	return projects
}
