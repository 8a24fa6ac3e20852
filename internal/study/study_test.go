package study

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"coevo/internal/corpus"
	"coevo/internal/engine"
	"coevo/internal/gitlog"
	"coevo/internal/history"
	"coevo/internal/taxa"
	"coevo/internal/vcs"
)

// smallCorpus generates a reduced corpus quickly.
func smallCorpus(t *testing.T, seed int64, perTaxon int) []*corpus.Project {
	t.Helper()
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
		t.Fatalf("Generate: %v", err)
	}
	return projects
}

func smallDataset(t *testing.T, seed int64, perTaxon int) *Dataset {
	t.Helper()
	d, err := AnalyzeCorpus(smallCorpus(t, seed, perTaxon), DefaultOptions())
	if err != nil {
		t.Fatalf("AnalyzeCorpus: %v", err)
	}
	return d
}

func TestAnalyzeRepository(t *testing.T) {
	repo := vcs.NewRepository("acme/app")
	when := func(m, d int) vcs.Signature {
		return vcs.Signature{Name: "dev", Email: "d@e.f",
			When: time.Date(2015, 1, 1, 9, 0, 0, 0, time.UTC).AddDate(0, m, d)}
	}
	repo.StageString("schema.sql", "CREATE TABLE t (a INT, b INT);")
	repo.StageString("app.js", "v1")
	if _, err := repo.Commit("init", when(0, 0)); err != nil {
		t.Fatal(err)
	}
	repo.StageString("app.js", "v2")
	if _, err := repo.Commit("work", when(3, 0)); err != nil {
		t.Fatal(err)
	}
	repo.StageString("schema.sql", "CREATE TABLE t (a INT, b INT, c INT);")
	if _, err := repo.Commit("add c", when(6, 0)); err != nil {
		t.Fatal(err)
	}

	res, err := AnalyzeRepository(repo, "", DefaultOptions()) // auto-locate DDL
	if err != nil {
		t.Fatalf("AnalyzeRepository: %v", err)
	}
	if res.DDLPath != "schema.sql" {
		t.Errorf("DDLPath = %q", res.DDLPath)
	}
	if res.DurationMonths != 6 {
		t.Errorf("DurationMonths = %d, want 6", res.DurationMonths)
	}
	if res.SchemaCommits != 2 || res.ProjectCommits != 3 {
		t.Errorf("commits = %d/%d, want 2/3", res.SchemaCommits, res.ProjectCommits)
	}
	if res.TotalSchemaActivity != 3 { // 2 born + 1 injected
		t.Errorf("TotalSchemaActivity = %d, want 3", res.TotalSchemaActivity)
	}
	if res.Joint.Len() != 7 {
		t.Errorf("joint length = %d, want 7", res.Joint.Len())
	}
	if res.Measures == nil || res.Measures.Sync10 < 0 || res.Measures.Sync10 > 1 {
		t.Errorf("measures = %+v", res.Measures)
	}
}

func TestAnalyzeRepositoryErrors(t *testing.T) {
	empty := vcs.NewRepository("acme/empty")
	if _, err := AnalyzeRepository(empty, "", DefaultOptions()); err == nil {
		t.Error("empty repo should fail")
	}
	if _, err := AnalyzeRepository(empty, "schema.sql", DefaultOptions()); err == nil {
		t.Error("missing DDL should fail")
	}
}

func TestAnalyzeHistoriesFromGitLog(t *testing.T) {
	// Real-ingestion path: project history from a textual git log, schema
	// history from a repository.
	repo := vcs.NewRepository("acme/app")
	when := vcs.Signature{Name: "dev", Email: "d@e.f", When: time.Date(2016, 1, 10, 0, 0, 0, 0, time.UTC)}
	repo.StageString("schema.sql", "CREATE TABLE t (a INT);")
	if _, err := repo.Commit("init", when); err != nil {
		t.Fatal(err)
	}
	sh, err := history.ExtractSchemaHistory(repo, "schema.sql", history.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	logText := "commit abc\nAuthor: Dev <d@e.f>\nDate:   2016-01-10 00:00:00 +0000\n\n    init\n\nA\tschema.sql\nA\tmain.go\n"
	entries, err := gitlog.Parse(strings.NewReader(logText))
	if err != nil {
		t.Fatal(err)
	}
	ph, err := history.ProjectHistoryFromLog(entries)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeHistories("acme/app", "schema.sql", sh, ph, DefaultOptions())
	if err != nil {
		t.Fatalf("AnalyzeHistories: %v", err)
	}
	if res.FileUpdates != 2 {
		t.Errorf("FileUpdates = %d, want 2", res.FileUpdates)
	}
}

func TestAnalyzeCorpusKeepsIntent(t *testing.T) {
	d := smallDataset(t, 5, 3)
	if d.Size() != 18 {
		t.Fatalf("Size = %d, want 18", d.Size())
	}
	for _, p := range d.Projects {
		if p.IntendedTaxon == nil {
			t.Fatalf("%s: intended taxon not recorded", p.Name)
		}
	}
	groups := d.ByTaxon()
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != d.Size() {
		t.Errorf("ByTaxon loses projects: %d != %d", total, d.Size())
	}
}

// TestAnalyzeCorpusFaultIsolation injects an unanalyzable project (no
// commits) and a poisoned one (nil repository, which panics inside the
// task) into an otherwise healthy corpus: both must surface as recorded
// failures while every healthy project is still measured, in corpus
// order.
func TestAnalyzeCorpusFaultIsolation(t *testing.T) {
	good := smallCorpus(t, 21, 2)
	mixed := append([]*corpus.Project{}, good[:3]...)
	mixed = append(mixed,
		&corpus.Project{Name: "acme/empty", Taxon: taxa.Frozen,
			Repo: vcs.NewRepository("acme/empty"), DDLPath: "schema.sql"},
		&corpus.Project{Name: "acme/poisoned", Taxon: taxa.Frozen, Repo: nil, DDLPath: "schema.sql"},
	)
	mixed = append(mixed, good[3:]...)

	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Exec.Workers = workers
		opts.Exec.Name = func(i int) string { return mixed[i].Name }
		d, err := AnalyzeCorpusContext(context.Background(), mixed, opts)
		if err != nil {
			t.Fatalf("workers=%d: fault must not abort the study: %v", workers, err)
		}
		if d.Size() != len(good) {
			t.Fatalf("workers=%d: analyzed %d, want %d", workers, d.Size(), len(good))
		}
		if len(d.Failures) != 2 {
			t.Fatalf("workers=%d: failures = %+v", workers, d.Failures)
		}
		if d.Failures[0].Name != "acme/empty" || d.Failures[1].Name != "acme/poisoned" {
			t.Errorf("workers=%d: failure order/names wrong: %+v", workers, d.Failures)
		}
		if d.Failures[0].Index != 3 || d.Failures[1].Index != 4 {
			t.Errorf("workers=%d: failure indices = %d, %d; want 3, 4",
				workers, d.Failures[0].Index, d.Failures[1].Index)
		}
		var pe *engine.PanicError
		if !errors.As(d.Failures[1].Err, &pe) {
			t.Errorf("workers=%d: poisoned project should fail with PanicError, got %v",
				workers, d.Failures[1].Err)
		}
		// Healthy results keep corpus order despite the interleaved faults.
		wantIdx := 0
		for _, p := range mixed {
			if p.Name == "acme/empty" || p.Name == "acme/poisoned" {
				continue
			}
			if d.Projects[wantIdx].Name != p.Name {
				t.Fatalf("workers=%d: result %d is %s, want %s",
					workers, wantIdx, d.Projects[wantIdx].Name, p.Name)
			}
			wantIdx++
		}
	}
}

// TestAnalyzeCorpusFailFast opts into the abort-on-first-error policy.
func TestAnalyzeCorpusFailFast(t *testing.T) {
	projects := []*corpus.Project{
		{Name: "acme/empty", Taxon: taxa.Frozen,
			Repo: vcs.NewRepository("acme/empty"), DDLPath: "schema.sql"},
	}
	opts := DefaultOptions()
	opts.Exec.Policy = engine.FailFast
	d, err := AnalyzeCorpusContext(context.Background(), projects, opts)
	if err == nil {
		t.Fatal("FailFast study with a failing project must return an error")
	}
	if d == nil || len(d.Failures) != 1 {
		t.Fatalf("FailFast must still return the partial dataset, got %+v", d)
	}
}

// TestAnalyzeCorpusCancellation stops a study mid-run via its context.
func TestAnalyzeCorpusCancellation(t *testing.T) {
	projects := smallCorpus(t, 22, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d, err := AnalyzeCorpusContext(ctx, projects, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if d == nil {
		t.Fatal("a cancelled study must still return its partial dataset")
	}
}

func TestSynchronicityHistogram(t *testing.T) {
	d := smallDataset(t, 8, 3)
	h := d.SynchronicityHistogram(0.10, 5)
	sum := 0
	for _, c := range h.Buckets {
		sum += c
	}
	if sum != d.Size() {
		t.Errorf("histogram total = %d, want %d", sum, d.Size())
	}
	if len(h.Labels) != 5 || h.Labels[0] != "[0%-20%)" || h.Labels[4] != "[80%-100%]" {
		t.Errorf("labels = %v", h.Labels)
	}
	// A different theta changes the histogram via recomputation.
	h5 := d.SynchronicityHistogram(0.05, 5)
	sum5 := 0
	for _, c := range h5.Buckets {
		sum5 += c
	}
	if sum5 != d.Size() {
		t.Errorf("theta=5%% histogram total = %d", sum5)
	}
}

func TestScatterAndLongBand(t *testing.T) {
	d := smallDataset(t, 9, 3)
	points := d.DurationSynchronicityScatter()
	if len(points) != d.Size() {
		t.Fatalf("scatter size = %d", len(points))
	}
	for _, pt := range points {
		if pt.Sync < 0 || pt.Sync > 1 || pt.Duration < 0 {
			t.Errorf("bad point %+v", pt)
		}
	}
	in, out := d.LongProjectSyncBand(0, 0, 1)
	if in != d.Size() || out != 0 {
		t.Errorf("full band should contain everything: %d/%d", in, out)
	}
}

func TestAdvanceBreakdown(t *testing.T) {
	d := smallDataset(t, 10, 3)
	table := d.AdvanceBreakdown()
	if len(table.Rows) != 10 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	if table.Rows[0].Label != "0.9-1.0" || table.Rows[9].Label != "0.0-0.1" {
		t.Errorf("row order wrong: %q .. %q", table.Rows[0].Label, table.Rows[9].Label)
	}
	srcSum, timeSum := table.BlankSource, table.BlankTime
	for _, r := range table.Rows {
		srcSum += r.SourceCount
		timeSum += r.TimeCount
	}
	if srcSum != table.Total || timeSum != table.Total {
		t.Errorf("column sums %d/%d != total %d", srcSum, timeSum, table.Total)
	}
	last := table.Rows[len(table.Rows)-1]
	wantCum := 1 - float64(table.BlankSource)/float64(table.Total)
	if diff := last.SourceCum - wantCum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("cumulative source share ends at %v, want %v", last.SourceCum, wantCum)
	}
}

func TestAlwaysAdvance(t *testing.T) {
	d := smallDataset(t, 11, 3)
	s := d.AlwaysAdvance()
	if s.Total != d.Size() {
		t.Errorf("total = %d", s.Total)
	}
	if s.Both > s.Time || s.Both > s.Source {
		t.Errorf("both (%d) cannot exceed time (%d) or source (%d)", s.Both, s.Time, s.Source)
	}
	perTaxonTime := 0
	for _, cell := range s.PerTaxon {
		perTaxonTime += cell.Time
		if cell.Both > cell.Time || cell.Both > cell.Source {
			t.Errorf("taxon %v: inconsistent cell %+v", cell.Taxon, cell)
		}
	}
	if perTaxonTime != s.Time {
		t.Errorf("per-taxon time sums to %d, total says %d", perTaxonTime, s.Time)
	}
}

func TestAttainment(t *testing.T) {
	d := smallDataset(t, 12, 3)
	b := d.Attainment()
	if len(b.Alphas) != 4 || len(b.RangeEdges) != 4 {
		t.Fatalf("breakdown dims = %d/%d", len(b.Alphas), len(b.RangeEdges))
	}
	for ai := range b.Alphas {
		sum := 0
		for _, c := range b.Counts[ai] {
			sum += c
		}
		if sum != b.Total {
			t.Errorf("alpha %v: counts sum to %d, want %d", b.Alphas[ai], sum, b.Total)
		}
	}
	// Attainment of a lower alpha can never happen later: the count of
	// projects attaining within the first range must be non-increasing in
	// alpha.
	for ai := 1; ai < len(b.Alphas); ai++ {
		if b.Counts[ai][0] > b.Counts[ai-1][0] {
			t.Errorf("first-range counts increase with alpha: %v", b.Counts)
		}
	}
}

func TestStatisticsSmall(t *testing.T) {
	d := smallDataset(t, 13, 4)
	r, err := d.Statistics(77)
	if err != nil {
		t.Fatalf("Statistics: %v", err)
	}
	if len(r.Normality) == 0 {
		t.Error("no normality results")
	}
	for name, res := range r.Normality {
		if res.P < 0 || res.P > 1 {
			t.Errorf("normality %s p = %v", name, res.P)
		}
	}
	if r.SyncByTaxon.DF < 1 || r.AttainByTaxon.DF < 1 {
		t.Errorf("df = %d/%d", r.SyncByTaxon.DF, r.AttainByTaxon.DF)
	}
	if len(r.MedianSyncByTaxon()) != taxa.Count || len(r.MedianAttainByTaxon()) != taxa.Count {
		t.Error("median maps incomplete")
	}
	if !r.TimeLagFisher.Simulated {
		t.Error("R×C Fisher should be simulated")
	}
	if r.MaxNormalityP() < 0 || r.MaxNormalityP() > 1 {
		t.Errorf("MaxNormalityP = %v", r.MaxNormalityP())
	}
}

func TestStatisticsRequiresData(t *testing.T) {
	d := &Dataset{}
	if _, err := d.Statistics(1); err == nil {
		t.Error("empty dataset should fail")
	}
}

// TestFullStudyShape runs the complete 195-project study and asserts the
// paper's headline findings at the shape level. This is the reproduction's
// core acceptance test.
func TestFullStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus study in -short mode")
	}
	d, err := RunDefault(2023)
	if err != nil {
		t.Fatalf("RunDefault: %v", err)
	}
	if d.Size() != 195 {
		t.Fatalf("Size = %d, want 195", d.Size())
	}

	// RQ1 (Fig. 4): all kinds of behaviours — every synchronicity bucket
	// is populated, and no single bucket dominates with > 60%.
	h := d.SynchronicityHistogram(0.10, 5)
	for i, c := range h.Buckets {
		if c == 0 {
			t.Errorf("Fig4: bucket %s empty", h.Labels[i])
		}
		if c*100 > 60*d.Size() {
			t.Errorf("Fig4: bucket %s dominates with %d", h.Labels[i], c)
		}
	}

	// RQ2 (Fig. 6): the [0.9-1.0] range is the single largest for both
	// source and time; time-advance exceeds source-advance; a majority of
	// projects is ahead for at least half their life.
	adv := d.AdvanceBreakdown()
	top := adv.Rows[0]
	for _, r := range adv.Rows[1:] {
		if r.SourceCount > top.SourceCount || r.TimeCount > top.TimeCount {
			t.Errorf("Fig6: top range not dominant: %+v vs %+v", top, r)
		}
	}
	if top.TimeCount <= top.SourceCount {
		t.Errorf("Fig6: time advance (%d) should exceed source advance (%d)", top.TimeCount, top.SourceCount)
	}
	if adv.Rows[4].SourceCum < 0.60 || adv.Rows[4].TimeCum < 0.65 {
		t.Errorf("Fig6: cumulative advance at 0.5 too low: src %.2f time %.2f", adv.Rows[4].SourceCum, adv.Rows[4].TimeCum)
	}

	// Fig. 7: both ≈ source < time, and the frozen family is more likely
	// to be always ahead than the active family.
	aa := d.AlwaysAdvance()
	if !(aa.Both <= aa.Source && aa.Source < aa.Time) {
		t.Errorf("Fig7: ordering violated: time %d source %d both %d", aa.Time, aa.Source, aa.Both)
	}
	frozenRate, activeRate := alwaysRate(aa, true), alwaysRate(aa, false)
	if frozenRate <= activeRate {
		t.Errorf("Fig7: frozen family rate %.2f should exceed active family rate %.2f", frozenRate, activeRate)
	}

	// RQ3 (Fig. 8): roughly half the projects attain 75% of evolution in
	// the first 20% of life; the first range is the largest.
	att := d.Attainment()
	b75 := att.Counts[1]
	if b75[0]*100 < 40*att.Total || b75[0]*100 > 65*att.Total {
		t.Errorf("Fig8: 75%%@20%% = %d of %d, want roughly half", b75[0], att.Total)
	}
	for _, c := range b75[1:] {
		if c > b75[0] {
			t.Errorf("Fig8: first range must dominate 75%% attainment: %v", b75)
		}
	}
	// Resistance to rigidity exists: some projects attain 100% only after
	// 80% of their life.
	b100 := att.Counts[3]
	if b100[3] == 0 {
		t.Error("Fig8: no late completers at alpha=100%")
	}

	// Section 7: nothing is normal; taxon affects synchronicity and
	// attainment; time lag n.s. but source and both significant; the two
	// Kendall correlations are strong and positive.
	st, err := d.Statistics(99)
	if err != nil {
		t.Fatalf("Statistics: %v", err)
	}
	if st.MaxNormalityP() > 0.007 {
		t.Errorf("Sec7: max normality p = %v, paper bound 0.007", st.MaxNormalityP())
	}
	if st.SyncByTaxon.P > 0.05 {
		t.Errorf("Sec7: taxon×sync p = %v, want significant", st.SyncByTaxon.P)
	}
	if st.AttainByTaxon.P > 0.05 {
		t.Errorf("Sec7: taxon×attain p = %v, want significant", st.AttainByTaxon.P)
	}
	if st.TimeLagFisher.P < 0.05 {
		t.Errorf("Sec7: time lag should be n.s. (paper 0.07), got %v", st.TimeLagFisher.P)
	}
	if st.SourceLagFisher.P > 0.05 || st.BothLagFisher.P > 0.05 {
		t.Errorf("Sec7: source/both lag should be significant: %v / %v",
			st.SourceLagFisher.P, st.BothLagFisher.P)
	}
	if st.SyncThetaCorr.Tau < 0.5 || st.AdvanceCorr.Tau < 0.5 {
		t.Errorf("Sec7: Kendall correlations too weak: %v / %v (paper 0.67 / 0.75)",
			st.SyncThetaCorr.Tau, st.AdvanceCorr.Tau)
	}

	// Taxon medians: focused-shot taxa lead synchronicity; frozen family
	// attains earliest.
	syncMed := st.MedianSyncByTaxon()
	if syncMed[taxa.FocusedShotFrozen] <= syncMed[taxa.Frozen] {
		t.Errorf("Sec7: FS&F median sync %.2f should exceed FROZEN %.2f",
			syncMed[taxa.FocusedShotFrozen], syncMed[taxa.Frozen])
	}
	attMed := st.MedianAttainByTaxon()
	if attMed[taxa.Frozen] >= attMed[taxa.Active] {
		t.Errorf("Sec7: FROZEN should attain earlier than ACTIVE: %.2f vs %.2f",
			attMed[taxa.Frozen], attMed[taxa.Active])
	}
}

// alwaysRate returns the always-ahead-of-time rate of the frozen or active
// taxon family.
func alwaysRate(aa *AlwaysAdvanceSummary, frozenFamily bool) float64 {
	num, den := 0, 0
	for _, cell := range aa.PerTaxon {
		if cell.Taxon.IsFrozenFamily() == frozenFamily {
			num += cell.Time
			den += cell.Projects
		}
	}
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func TestSynchronicityHistogramByTaxon(t *testing.T) {
	d := smallDataset(t, 14, 3)
	perTaxon := d.SynchronicityHistogramByTaxon(0.10, 5)
	if len(perTaxon) != taxa.Count {
		t.Fatalf("taxa = %d", len(perTaxon))
	}
	total := 0
	for _, h := range perTaxon {
		for _, c := range h.Buckets {
			total += c
		}
	}
	if total != d.Size() {
		t.Errorf("per-taxon histograms sum to %d, want %d", total, d.Size())
	}
}

func TestChangeLocality(t *testing.T) {
	d := smallDataset(t, 15, 4)
	loc := d.ChangeLocality(5)
	if loc.Projects == 0 {
		t.Fatal("no projects qualified for locality")
	}
	if loc.MedianTopShare < 0 || loc.MedianTopShare > 1 {
		t.Errorf("MedianTopShare = %v", loc.MedianTopShare)
	}
	if loc.MedianUnchangedShare < 0 || loc.MedianUnchangedShare > 1 {
		t.Errorf("MedianUnchangedShare = %v", loc.MedianUnchangedShare)
	}
	// Per-project locality must be internally consistent.
	for _, p := range d.Projects {
		if p.Locality.ChangedTables > p.Locality.Tables {
			t.Errorf("%s: changed %d > tables %d", p.Name, p.Locality.ChangedTables, p.Locality.Tables)
		}
	}
}
