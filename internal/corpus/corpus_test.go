package corpus

import (
	"context"
	"math/rand"
	"testing"

	"coevo/internal/cache"
	"coevo/internal/history"
	"coevo/internal/schema"
	"coevo/internal/schemadiff"
	"coevo/internal/sqlddl"
	"coevo/internal/taxa"
)

// smallConfig returns a reduced corpus for fast unit tests.
func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	profiles := DefaultProfiles()
	for i := range profiles {
		profiles[i].Count = 2
		// Cap durations so tests stay fast.
		if profiles[i].DurationMonths[1] > 40 {
			profiles[i].DurationMonths[1] = 40
		}
	}
	cfg.Profiles = profiles
	return cfg
}

func TestDefaultProfilesSumTo195(t *testing.T) {
	total := 0
	seen := map[taxa.Taxon]int{}
	for _, p := range DefaultProfiles() {
		total += p.Count
		seen[p.Taxon] += p.Count
	}
	if total != 195 {
		t.Errorf("profile counts sum to %d, want 195", total)
	}
	want := map[taxa.Taxon]int{
		taxa.Frozen: 33, taxa.AlmostFrozen: 65, taxa.FocusedShotFrozen: 30,
		taxa.Moderate: 30, taxa.FocusedShotLow: 17, taxa.Active: 20,
	}
	for taxon, count := range want {
		if seen[taxon] != count {
			t.Errorf("%v count = %d, want %d", taxon, seen[taxon], count)
		}
	}
}

func TestGenerateSmallCorpus(t *testing.T) {
	projects, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(projects) != 12 {
		t.Fatalf("len(projects) = %d, want 12", len(projects))
	}
	for _, p := range projects {
		if p.Repo.CommitCount() == 0 {
			t.Errorf("%s: empty repository", p.Name)
		}
		if p.DDLPath == "" {
			t.Errorf("%s: no DDL path", p.Name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		ha := a[i].Repo.Head()
		hb := b[i].Repo.Head()
		if ha == nil || hb == nil || ha.Hash != hb.Hash {
			t.Fatalf("project %d: heads differ across identical seeds", i)
		}
	}
	c, err := Generate(smallConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i].Repo.Head().Hash == c[i].Repo.Head().Hash {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical corpora")
	}
}

func TestGeneratedProjectsAnalyzable(t *testing.T) {
	projects, err := Generate(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range projects {
		sh, err := history.ExtractSchemaHistory(p.Repo, p.DDLPath, history.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: schema history: %v", p.Name, err)
		}
		if sh.TotalActivity() == 0 {
			t.Errorf("%s: zero total activity (birth should count)", p.Name)
		}
		for i, v := range sh.Versions {
			if !v.Report.Clean() {
				t.Errorf("%s: version %d did not parse cleanly: %+v", p.Name, i, v.Report)
			}
		}
		ph, err := history.ExtractProjectHistory(p.Repo)
		if err != nil {
			t.Fatalf("%s: project history: %v", p.Name, err)
		}
		if ph.CommitCount() < sh.CommitCount() {
			t.Errorf("%s: project has fewer commits than its schema file", p.Name)
		}
		if _, err := history.FindDDLPath(p.Repo); err != nil {
			t.Errorf("%s: FindDDLPath: %v", p.Name, err)
		}
	}
}

func TestMeasuredTaxaMatchIntent(t *testing.T) {
	cfg := DefaultConfig(11)
	profiles := DefaultProfiles()
	for i := range profiles {
		profiles[i].Count = 4
		if profiles[i].DurationMonths[1] > 60 {
			profiles[i].DurationMonths[1] = 60
		}
	}
	cfg.Profiles = profiles
	projects, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	matches, total := 0, 0
	for _, p := range projects {
		sh, err := history.ExtractSchemaHistory(p.Repo, p.DDLPath, history.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got := taxa.ClassifyHistory(sh, taxa.DefaultConfig())
		total++
		if got == p.Taxon {
			matches++
		} else {
			t.Logf("%s: intended %v, classified %v (total post-birth units matter)", p.Name, p.Taxon, got)
		}
	}
	// The classifier recomputes taxa from the materialized history; intent
	// and measurement must agree for the clear majority.
	if matches*100 < total*70 {
		t.Errorf("only %d/%d projects classified as intended", matches, total)
	}
}

func TestSchemaBuilderExactUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		b := newSchemaBuilder(rng)
		b.addTable(3 + rng.Intn(5))
		b.addTable(2 + rng.Intn(5))
		prev, rep := schema.ParseAndBuildDialect(b.render(), sqlddl.Generic)
		if !rep.Clean() {
			t.Fatalf("initial render diagnostics: %v", rep.Diags)
		}
		units := 1 + rng.Intn(25)
		b.applyUnits(units)
		next, rep := schema.ParseAndBuildDialect(b.render(), sqlddl.Generic)
		if !rep.Clean() {
			t.Fatalf("mutated render diagnostics: %v", rep.Diags)
		}
		delta := schemadiff.Compare(prev, next)
		if got := delta.TotalActivity(); got != units {
			t.Fatalf("trial %d: applied %d units, diff measures %d (%s)", trial, units, got, delta)
		}
	}
}

func TestPlaceUnitsConservesMass(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := []Shape{ShapeEarly, ShapeUniform, ShapeLate, ShapeSingleSpike, ShapeDoubleSpike}
	for _, shape := range shapes {
		for trial := 0; trial < 20; trial++ {
			units := 1 + rng.Intn(200)
			n := 2 + rng.Intn(60)
			schedule := placeUnits(rng, units, 1, n, shape)
			sum := 0
			for _, v := range schedule {
				sum += v
			}
			if sum != units {
				t.Fatalf("shape %v: placed %d of %d units", shape, sum, units)
			}
		}
	}
}

func TestPlaceUnitsEarlyBias(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	schedule := placeUnits(rng, 1000, 1, 40, ShapeEarly)
	firstHalf, secondHalf := 0, 0
	for i, v := range schedule {
		if i < len(schedule)/2 {
			firstHalf += v
		} else {
			secondHalf += v
		}
	}
	if firstHalf <= secondHalf*2 {
		t.Errorf("early shape not front-loaded: %d vs %d", firstHalf, secondHalf)
	}
}

func TestShapeStrings(t *testing.T) {
	for _, s := range []Shape{ShapeEarly, ShapeUniform, ShapeLate, ShapeSingleSpike, ShapeDoubleSpike} {
		if s.String() == "unknown" || s.String() == "" {
			t.Errorf("shape %d has no name", s)
		}
	}
}

func TestCommitDatesMonotonic(t *testing.T) {
	projects, err := Generate(smallConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range projects {
		commits := p.Repo.Commits()
		for i := 1; i < len(commits); i++ {
			if commits[i].When().Before(commits[i-1].When()) {
				t.Fatalf("%s: commit %d predates its parent", p.Name, i)
			}
		}
	}
}

// TestClaimedSpecsGenerateTheCorpus: generating the specs a Source hands
// out reproduces the corpus Generate returns, name, taxon and head hash,
// and a spec names its project before generating it.
func TestClaimedSpecsGenerateTheCorpus(t *testing.T) {
	cfg := smallConfig(5)
	want, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSource(cfg)
	for i := 0; ; i++ {
		sp, local, ok := src.Claim()
		if !ok {
			if i != len(want) {
				t.Fatalf("claimed %d specs, want %d", i, len(want))
			}
			break
		}
		if local != i {
			t.Fatalf("claim %d: local index %d", i, local)
		}
		p, err := sp.Generate()
		if err != nil {
			t.Fatal(err)
		}
		w := want[i]
		if sp.Name() != w.Name || sp.Taxon() != w.Taxon {
			t.Errorf("spec %d names %s (%s), want %s (%s)", i, sp.Name(), sp.Taxon(), w.Name, w.Taxon)
		}
		if p.Name != w.Name || p.Taxon != w.Taxon || p.DDLPath != w.DDLPath || p.Repo.Head().Hash != w.Repo.Head().Hash {
			t.Errorf("spec %d generated %s %s at %s, want %s %s at %s", i,
				p.Name, p.DDLPath, p.Repo.Head().Hash, w.Name, w.DDLPath, w.Repo.Head().Hash)
		}
	}
	if p, err := src.Next(context.Background()); p != nil || err != nil {
		t.Errorf("Next after the last claim = %v, %v; want nil, nil", p, err)
	}
}

// TestProjectKeySensitivity: every generation input participates in
// Spec.Fold, and so in every key that stands for a generated project.
func TestProjectKeySensitivity(t *testing.T) {
	key := func(cfg Config, prof Profile, idx int) cache.Key {
		h := cache.NewHasher("test")
		Spec{cfg: &cfg, prof: prof, idx: idx}.Fold(h)
		return h.Sum()
	}
	cfg := smallConfig(1)
	base := key(cfg, cfg.Profiles[1], 3)
	if key(cfg, cfg.Profiles[1], 3) != base {
		t.Error("key not deterministic")
	}
	if key(cfg, cfg.Profiles[1], 4) == base {
		t.Error("index not keyed")
	}
	if key(cfg, cfg.Profiles[2], 3) == base {
		t.Error("profile not keyed")
	}
	cfg2 := smallConfig(2)
	if key(cfg2, cfg2.Profiles[1], 3) == base {
		t.Error("seed not keyed")
	}
	cfg3 := smallConfig(1)
	cfg3.StartSpreadMonths = 12
	if key(cfg3, cfg3.Profiles[1], 3) == base {
		t.Error("start spread not keyed")
	}
	cfg4 := smallConfig(1)
	prof := cfg4.Profiles[1]
	prof.LateBirthProb += 0.01
	if key(cfg4, prof, 3) == base {
		t.Error("profile float field not keyed")
	}
	prof = cfg4.Profiles[1]
	prof.SchemaShapes = append([]ShapeWeight(nil), prof.SchemaShapes...)
	prof.SchemaShapes[0].Weight += 0.01
	if key(cfg4, prof, 3) == base {
		t.Error("shape weights not keyed")
	}
}
