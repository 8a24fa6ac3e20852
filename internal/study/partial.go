package study

// Mergeable figure partials: every accumulator behind Figures is an
// associative fold, so a corpus can be split into disjoint shards, each
// shard folded independently into a PartialFigures, and the partials
// merged back into exactly the state a sequential fold would have built.
//
// Two kinds of state make that work:
//
//   - Commutative counters (histogram buckets, band/advance/attainment
//     counts, parse-health sums) merge by element-wise addition; any
//     merge order yields the same state.
//   - Order-sensitive vectors (the scatter point cloud and the Section 7
//     statistics rows) carry each entry's global corpus sequence number,
//     and merging interleaves them back into ascending sequence order.
//     Any merge order of disjoint partials therefore reproduces the
//     sequential vectors — the merge laws the property tests in
//     partial_test.go check.
//
// A partial is input from another process, so both laws are enforced,
// not assumed: decoding refuses vectors that are not in strictly
// ascending sequence order or that do not hold one entry per folded
// project, and counters that no fold of that many projects produces;
// Merge refuses a sequence number present on both sides (a project
// folded twice) before it changes anything.
//
// Partials travel between processes through a versioned binary codec
// built on the cache codec (internal/cache.Enc/Dec), the same idiom the
// measure-bundle cache uses in cached.go: explicit field order, varint
// framing, fail-stop decoding. Bump partialFiguresMagic whenever the
// field layout changes — a coordinator refuses partials from a worker
// built at a different codec version instead of mis-decoding them.

import (
	"errors"
	"fmt"
	"slices"

	"coevo/internal/cache"
	"coevo/internal/stats"
	"coevo/internal/taxa"
)

// PartialFigures is a Figures built over one shard of a corpus: the
// unit the coordinator/worker protocol ships and folds. It is the same
// type — every Figures is mergeable — the alias just names the role.
type PartialFigures = Figures

// partialFiguresMagic versions the partial-figures wire format. v1:
// initial layout (seq-keyed scatter/locality/stats vectors, commutative
// counter sums, parse-health totals). v2: v1 without the per-taxon
// histograms and the locality shares, which no study section renders.
const partialFiguresMagic = "coevo/partial-figures/v2"

// decodeCap bounds length-prefixed preallocation while decoding, so a
// corrupt or adversarial length cannot demand gigabytes up front; the
// append loop below it still fail-stops on truncated input.
const decodeCap = 4096

// Merge folds o into f. Both must have been built with the same figure
// configuration (θ, bucket counts, band, α thresholds); a mismatch is an
// error, not a silently wrong figure. So is a corpus sequence number
// present in both: the partials overlap. Merge checks both before it
// changes f, so on an error f is as it was. Merging partials built over
// disjoint corpus shards — in any order — reproduces the state of one
// sequential fold over the union, because commutative counters add and
// sequence-keyed vectors re-interleave into corpus order. o is left in
// an unspecified state and must not be used again.
func (f *Figures) Merge(o *Figures) error {
	if o == nil {
		return nil
	}
	if err := f.compatible(o); err != nil {
		return fmt.Errorf("study: merge figures: %w", err)
	}
	points, err := mergeBySeq(f.Scatter.points, o.Scatter.points)
	if err != nil {
		return fmt.Errorf("study: merge figures: scatter: %w", err)
	}
	rows, err := mergeBySeq(f.Stats.rows, o.Stats.rows)
	if err != nil {
		return fmt.Errorf("study: merge figures: statistics: %w", err)
	}
	f.Scatter.points, f.Stats.rows = points, rows
	f.Sync.merge(o.Sync)
	f.Band.merge(o.Band)
	f.Advance.merge(o.Advance)
	f.Always.merge(o.Always)
	f.Attainment.merge(o.Attainment)
	f.Health.merge(o.Health)
	f.count += o.count
	return nil
}

// compatible reports why o cannot merge into f: partials folded under
// different accumulator configurations count different populations.
func (f *Figures) compatible(o *Figures) error {
	if a, b := f.Sync.h, o.Sync.h; a.Theta != b.Theta || len(a.Buckets) != len(b.Buckets) {
		return fmt.Errorf("sync histogram config mismatch (θ=%g/%d vs θ=%g/%d)",
			a.Theta, len(a.Buckets), b.Theta, len(b.Buckets))
	}
	if a, b := f.Band, o.Band; a.thresholdMonths != b.thresholdMonths || a.lo != b.lo || a.hi != b.hi {
		return fmt.Errorf("sync band config mismatch (%dmo [%g,%g] vs %dmo [%g,%g])",
			a.thresholdMonths, a.lo, a.hi, b.thresholdMonths, b.lo, b.hi)
	}
	if a, b := f.Attainment, o.Attainment; !slices.Equal(a.alphas, b.alphas) || !slices.Equal(a.rangeEdges, b.rangeEdges) {
		return fmt.Errorf("attainment config mismatch (α=%v/%v vs α=%v/%v)",
			a.alphas, a.rangeEdges, b.alphas, b.rangeEdges)
	}
	return nil
}

// EncodePartial serializes f through the versioned binary codec. The
// result is self-contained: configuration travels with the state, so
// DecodePartialFigures rebuilds an equivalent Figures without any
// out-of-band agreement beyond the codec version.
func (f *Figures) EncodePartial() []byte {
	e := cache.GetEnc()
	defer cache.PutEnc(e)
	e.String(partialFiguresMagic)
	e.Int(int64(f.count))

	// Figure 4 histogram.
	e.Float(f.Sync.h.Theta)
	encodeIntsP(e, f.Sync.h.Buckets)
	e.Int(int64(f.Sync.h.Skipped))

	// Figure 5 point cloud, sequence-keyed.
	e.Uvarint(uint64(len(f.Scatter.points.vals)))
	for i, p := range f.Scatter.points.vals {
		e.Int(f.Scatter.points.seqs[i])
		e.String(p.Name)
		e.Uvarint(uint64(p.Taxon))
		e.Int(int64(p.Duration))
		e.Float(p.Sync)
	}

	// Figure 5 band.
	e.Int(int64(f.Band.thresholdMonths))
	e.Float(f.Band.lo)
	e.Float(f.Band.hi)
	e.Int(int64(f.Band.inside))
	e.Int(int64(f.Band.outside))

	// Figure 6 advance breakdown.
	encodeIntsP(e, f.Advance.srcCounts)
	encodeIntsP(e, f.Advance.timeCounts)
	e.Int(int64(f.Advance.blankSource))
	e.Int(int64(f.Advance.blankTime))
	e.Int(int64(f.Advance.total))

	// Figure 7 always-in-advance cells.
	e.Uvarint(uint64(len(f.Always.cells)))
	for _, c := range f.Always.cells {
		e.Int(int64(c.Projects))
		e.Int(int64(c.Time))
		e.Int(int64(c.Source))
		e.Int(int64(c.Both))
	}
	e.Int(int64(f.Always.time))
	e.Int(int64(f.Always.source))
	e.Int(int64(f.Always.both))
	e.Int(int64(f.Always.total))

	// Figure 8 attainment breakdown.
	encodeFloats(e, f.Attainment.alphas)
	encodeFloats(e, f.Attainment.rangeEdges)
	for _, row := range f.Attainment.counts {
		encodeIntsP(e, row)
	}
	e.Int(int64(f.Attainment.total))

	// Section 7 statistics rows, sequence-keyed.
	e.Uvarint(uint64(len(f.Stats.rows.vals)))
	for i := range f.Stats.rows.vals {
		r := &f.Stats.rows.vals[i]
		e.Int(f.Stats.rows.seqs[i])
		e.Uvarint(uint64(r.taxon))
		e.Int(int64(r.durationMonths))
		e.Float(r.sync5)
		e.Float(r.sync10)
		e.Float(r.advTime)
		e.Float(r.advSource)
		e.Bool(r.advanceDefined)
		e.Bool(r.aheadTime)
		e.Bool(r.aheadSource)
		e.Bool(r.aheadBoth)
		e.Float(r.attain75)
		e.Int(int64(r.totalSchemaActivity))
		e.Int(int64(r.fileUpdates))
	}

	// Parse health.
	hs := f.Health.summary
	e.String(hs.Total.Dialect)
	e.Int(int64(hs.Total.Versions))
	e.Int(int64(hs.Total.CleanVersions))
	e.Int(int64(hs.Total.Stats.Attempted))
	e.Int(int64(hs.Total.Stats.Parsed))
	e.Int(int64(hs.Total.Stats.Recovered))
	e.Int(int64(hs.Total.Stats.Dropped))
	e.Int(int64(hs.Total.Lex))
	e.Int(int64(hs.Total.Syntax))
	e.Int(int64(hs.Total.Semantic))
	e.Int(int64(hs.Total.Uncategorized))
	e.Int(int64(hs.Total.MergesSkipped))
	e.Int(int64(hs.Total.NoOpCommits))
	e.Int(int64(hs.Projects))
	e.Int(int64(hs.CleanProjects))

	return e.Copy()
}

// DecodePartialFigures rebuilds a PartialFigures from its serialized
// form. Any malformed input — wrong magic, truncated fields, trailing
// bytes, impossible shapes, sequence-keyed vectors out of order or not
// one entry per project, counters that do not fit the project count —
// is an error, never a panic or a silently partial decode.
func DecodePartialFigures(data []byte) (*PartialFigures, error) {
	d := cache.NewDec(data)
	if magic := d.String(); magic != partialFiguresMagic {
		return nil, fmt.Errorf("study: partial figures: bad magic %q (want %q)", magic, partialFiguresMagic)
	}
	f := &Figures{count: int(d.Int())}

	theta := d.Float()
	buckets := decodeIntsP(d)
	h := &SyncHistogram{Theta: theta, Buckets: buckets, Labels: bucketLabels(len(buckets)), Skipped: int(d.Int())}
	f.Sync = &SyncHistogramAccumulator{h: h}

	f.Scatter = NewScatterAccumulator()
	nPoints := d.Uvarint()
	f.Scatter.points = makeSeqVec[ScatterPoint](nPoints)
	for i := uint64(0); i < nPoints && !d.Failed(); i++ {
		f.Scatter.points.add(d.Int(), ScatterPoint{
			Name:     d.String(),
			Taxon:    taxa.Taxon(d.Uvarint()),
			Duration: int(d.Int()),
			Sync:     d.Float(),
		})
	}

	f.Band = NewSyncBandAccumulator(int(d.Int()), d.Float(), d.Float())
	f.Band.inside = int(d.Int())
	f.Band.outside = int(d.Int())

	f.Advance = NewAdvanceAccumulator()
	src, tim := decodeIntsP(d), decodeIntsP(d)
	if !d.Failed() && (len(src) != f.Advance.n || len(tim) != f.Advance.n) {
		return nil, fmt.Errorf("study: partial figures: advance breakdown has %d/%d ranges (want %d)", len(src), len(tim), f.Advance.n)
	}
	f.Advance.srcCounts, f.Advance.timeCounts = src, tim
	f.Advance.blankSource = int(d.Int())
	f.Advance.blankTime = int(d.Int())
	f.Advance.total = int(d.Int())

	f.Always = NewAlwaysAdvanceAccumulator()
	if n := d.Uvarint(); !d.Failed() && n != uint64(len(f.Always.cells)) {
		return nil, fmt.Errorf("study: partial figures: %d always-advance cells (want %d)", n, len(f.Always.cells))
	}
	for i := range f.Always.cells {
		c := &f.Always.cells[i]
		c.Projects = int(d.Int())
		c.Time = int(d.Int())
		c.Source = int(d.Int())
		c.Both = int(d.Int())
	}
	f.Always.time = int(d.Int())
	f.Always.source = int(d.Int())
	f.Always.both = int(d.Int())
	f.Always.total = int(d.Int())

	alphas, edges := decodeFloats(d), decodeFloats(d)
	f.Attainment = NewAttainmentAccumulator(alphas, edges)
	for i := range f.Attainment.counts {
		row := decodeIntsP(d)
		if !d.Failed() && len(row) != len(edges) {
			return nil, fmt.Errorf("study: partial figures: attainment row has %d ranges (want %d)", len(row), len(edges))
		}
		f.Attainment.counts[i] = row
	}
	f.Attainment.total = int(d.Int())

	f.Stats = NewStatsAccumulator()
	nRows := d.Uvarint()
	f.Stats.rows = makeSeqVec[statsRow](nRows)
	for i := uint64(0); i < nRows && !d.Failed(); i++ {
		f.Stats.rows.add(d.Int(), statsRow{
			taxon:               taxa.Taxon(d.Uvarint()),
			durationMonths:      int(d.Int()),
			sync5:               d.Float(),
			sync10:              d.Float(),
			advTime:             d.Float(),
			advSource:           d.Float(),
			advanceDefined:      d.Bool(),
			aheadTime:           d.Bool(),
			aheadSource:         d.Bool(),
			aheadBoth:           d.Bool(),
			attain75:            d.Float(),
			totalSchemaActivity: int(d.Int()),
			fileUpdates:         int(d.Int()),
		})
	}

	f.Health = NewParseHealthAccumulator()
	hs := &f.Health.summary
	hs.Total.Dialect = d.String()
	hs.Total.Versions = int(d.Int())
	hs.Total.CleanVersions = int(d.Int())
	hs.Total.Stats.Attempted = int(d.Int())
	hs.Total.Stats.Parsed = int(d.Int())
	hs.Total.Stats.Recovered = int(d.Int())
	hs.Total.Stats.Dropped = int(d.Int())
	hs.Total.Lex = int(d.Int())
	hs.Total.Syntax = int(d.Int())
	hs.Total.Semantic = int(d.Int())
	hs.Total.Uncategorized = int(d.Int())
	hs.Total.MergesSkipped = int(d.Int())
	hs.Total.NoOpCommits = int(d.Int())
	hs.Projects = int(d.Int())
	hs.CleanProjects = int(d.Int())

	// Err also rejects trailing bytes, so a value that decoded cleanly is
	// exactly one partial, nothing more.
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("study: partial figures: %w", err)
	}
	// A fold adds one point and one row per project, in the order the
	// stream delivers them; anything else would merge into misordered or
	// duplicated rows.
	if len(f.Scatter.points.seqs) != f.count || len(f.Stats.rows.seqs) != f.count {
		return nil, fmt.Errorf("study: partial figures: %d scatter points and %d statistics rows for %d projects",
			len(f.Scatter.points.seqs), len(f.Stats.rows.seqs), f.count)
	}
	if !ascending(f.Scatter.points.seqs) || !ascending(f.Stats.rows.seqs) {
		return nil, errors.New("study: partial figures: corpus indices not strictly increasing")
	}
	if what := f.miscounted(); what != "" {
		return nil, fmt.Errorf("study: partial figures: %s do not fit %d projects", what, f.count)
	}
	return f, nil
}

// miscounted names the first counter group no fold of f.count projects
// produces, or returns "". Each accumulator's Add counts a project
// exactly once in some counters: a histogram bucket or Skipped; an
// advance range or blank, on both axes alike; its taxon's
// always-in-advance cell; the advance, always-in-advance, attainment and
// parse-health totals. It counts a project at most once in others: the
// band, each α's attainment row, a cell's always-ahead counts and the
// clean projects.
func (f *Figures) miscounted() string {
	n := f.count
	if sumProjects(n, f.Sync.h.Buckets, f.Sync.h.Skipped) != n {
		return "histogram buckets"
	}
	if s := sumProjects(n, nil, f.Band.inside, f.Band.outside); s < 0 || s > n {
		return "band counts"
	}
	a := f.Advance
	if a.total != n || a.blankSource != a.blankTime ||
		sumProjects(n, a.srcCounts, a.blankSource) != n || sumProjects(n, a.timeCounts, a.blankTime) != n {
		return "advance counts"
	}
	w := f.Always
	projects, ahead, aheadSource, aheadBoth := 0, 0, 0, 0
	for _, c := range w.cells {
		if sumProjects(n, nil, c.Projects) < 0 || sumProjects(c.Projects, nil, c.Time, c.Source, c.Both) < 0 {
			return "always-in-advance cells"
		}
		projects, ahead, aheadSource, aheadBoth = projects+c.Projects, ahead+c.Time, aheadSource+c.Source, aheadBoth+c.Both
	}
	if w.total != n || projects != n || w.time != ahead || w.source != aheadSource || w.both != aheadBoth {
		return "always-in-advance counts"
	}
	if f.Attainment.total != n {
		return "attainment counts"
	}
	for _, row := range f.Attainment.counts {
		if s := sumProjects(n, row); s < 0 || s > n {
			return "attainment counts"
		}
	}
	if h := f.Health.summary; h.Projects != n || sumProjects(n, nil, h.CleanProjects) < 0 {
		return "parse-health project counts"
	}
	return ""
}

// sumProjects adds counters that each count some of n projects, or
// returns -1 if one is negative or above n (which also keeps the sum of
// adversarial values from overflowing).
func sumProjects(n int, counts []int, more ...int) int {
	sum := 0
	for _, group := range [2][]int{counts, more} {
		for _, c := range group {
			if c < 0 || c > n {
				return -1
			}
			sum += c
		}
	}
	return sum
}

// bucketLabels rebuilds a histogram's bucket labels from its width.
func bucketLabels(n int) []string {
	labels := make([]string, n)
	for i := 0; i < n; i++ {
		labels[i] = stats.BucketLabel(i, n)
	}
	return labels
}

// ---- per-accumulator merges ----

// seqVec is an order-sensitive vector: vals[i] came from the project at
// corpus sequence number seqs[i], and a fold appends in ascending order.
type seqVec[T any] struct {
	seqs []int64
	vals []T
}

// makeSeqVec preallocates a decoded vector of n entries, clamped like
// every other decoded length.
func makeSeqVec[T any](n uint64) seqVec[T] {
	c := min(n, decodeCap)
	return seqVec[T]{make([]int64, 0, c), make([]T, 0, c)}
}

func (v *seqVec[T]) add(seq int64, x T) {
	v.seqs = append(v.seqs, seq)
	v.vals = append(v.vals, x)
}

// ascending reports whether seqs is strictly ascending, the order a fold
// keeps and mergeBySeq relies on.
func ascending(seqs []int64) bool {
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			return false
		}
	}
	return true
}

// mergeBySeq interleaves two vectors, each in strictly ascending
// sequence order, into one ascending vector, without modifying either;
// the result is a or b itself when the other is empty. A sequence
// number on both sides is an error: the two partials folded the same
// project.
func mergeBySeq[T any](a, b seqVec[T]) (seqVec[T], error) {
	if len(b.seqs) == 0 {
		return a, nil
	}
	if len(a.seqs) == 0 {
		return b, nil
	}
	n := len(a.seqs) + len(b.seqs)
	out := seqVec[T]{make([]int64, 0, n), make([]T, 0, n)}
	i, j := 0, 0
	for i < len(a.seqs) && j < len(b.seqs) {
		switch sa, sb := a.seqs[i], b.seqs[j]; {
		case sa < sb:
			out.add(sa, a.vals[i])
			i++
		case sb < sa:
			out.add(sb, b.vals[j])
			j++
		default:
			return seqVec[T]{}, fmt.Errorf("corpus index %d is in both partials", sa)
		}
	}
	out.seqs = append(append(out.seqs, a.seqs[i:]...), b.seqs[j:]...)
	out.vals = append(append(out.vals, a.vals[i:]...), b.vals[j:]...)
	return out, nil
}

func (a *SyncHistogramAccumulator) merge(b *SyncHistogramAccumulator) {
	for i := range a.h.Buckets {
		a.h.Buckets[i] += b.h.Buckets[i]
	}
	a.h.Skipped += b.h.Skipped
}

func (a *SyncBandAccumulator) merge(b *SyncBandAccumulator) {
	a.inside += b.inside
	a.outside += b.outside
}

func (a *AdvanceAccumulator) merge(b *AdvanceAccumulator) {
	for i := range a.srcCounts {
		a.srcCounts[i] += b.srcCounts[i]
		a.timeCounts[i] += b.timeCounts[i]
	}
	a.blankSource += b.blankSource
	a.blankTime += b.blankTime
	a.total += b.total
}

func (a *AlwaysAdvanceAccumulator) merge(b *AlwaysAdvanceAccumulator) {
	for i := range a.cells {
		a.cells[i].Projects += b.cells[i].Projects
		a.cells[i].Time += b.cells[i].Time
		a.cells[i].Source += b.cells[i].Source
		a.cells[i].Both += b.cells[i].Both
	}
	a.time += b.time
	a.source += b.source
	a.both += b.both
	a.total += b.total
}

func (a *AttainmentAccumulator) merge(b *AttainmentAccumulator) {
	for i := range a.counts {
		for j := range a.counts[i] {
			a.counts[i][j] += b.counts[i][j]
		}
	}
	a.total += b.total
}

// merge folds b's corpus-wide parse-health aggregate into a. An empty
// side is the fold identity — skipped outright, because
// history.ParseHealth.Add would read an all-zero Total as a project
// with an unknown dialect and degrade the merged dialect to "mixed".
func (a *ParseHealthAccumulator) merge(b *ParseHealthAccumulator) {
	if b.summary.Projects == 0 {
		return
	}
	if a.summary.Projects == 0 {
		a.summary = b.summary
		return
	}
	a.summary.Total.Add(b.summary.Total)
	a.summary.Projects += b.summary.Projects
	a.summary.CleanProjects += b.summary.CleanProjects
}

// encodeIntsP and decodeIntsP are the int-slice counterparts of the
// float helpers in cached.go, with the same corrupt-length clamp.
func encodeIntsP(e *cache.Enc, v []int) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.Int(int64(x))
	}
}

func decodeIntsP(d *cache.Dec) []int {
	n := d.Uvarint()
	if d.Failed() || n == 0 {
		return nil
	}
	v := make([]int, 0, min(n, decodeCap))
	for i := uint64(0); i < n && !d.Failed(); i++ {
		v = append(v, int(d.Int()))
	}
	return v
}
