// Package corpus synthesizes a study corpus: 195 FOSS-like projects, each
// a real repository in the vcs substrate with an evolving single-file SQL
// schema and ordinary source-file churn.
//
// The original study analyzes 195 GitHub projects (the Schema_Evo_2019
// data set plus local clones), which are not available offline. The
// generator substitutes them with synthetic repositories whose *shape*
// follows the published population: the per-taxon counts, the early-biased
// placement of schema change, the spread of project durations, and the
// mixture of early/uniform source-churn profiles. Everything downstream —
// DDL parsing, version diffing, heartbeat bucketing, measure computation —
// runs the same code path it would on real clones; the generator only
// decides when commits land and how much logical change each one carries.
package corpus

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"coevo/internal/cache"
	"coevo/internal/engine"
	"coevo/internal/obs"
	"coevo/internal/taxa"
	"coevo/internal/vcs"
)

// Shape describes how activity mass is placed over a project's life.
type Shape int

// The activity placement shapes.
const (
	// ShapeEarly front-loads activity (exponential decay over life).
	ShapeEarly Shape = iota
	// ShapeUniform spreads activity evenly.
	ShapeUniform
	// ShapeLate back-loads activity.
	ShapeLate
	// ShapeSingleSpike places one dominating burst.
	ShapeSingleSpike
	// ShapeDoubleSpike places two bursts.
	ShapeDoubleSpike
)

// String names the shape.
func (s Shape) String() string {
	switch s {
	case ShapeEarly:
		return "early"
	case ShapeUniform:
		return "uniform"
	case ShapeLate:
		return "late"
	case ShapeSingleSpike:
		return "single-spike"
	case ShapeDoubleSpike:
		return "double-spike"
	default:
		return "unknown"
	}
}

// ShapeWeight pairs a shape with a selection weight.
type ShapeWeight struct {
	Shape  Shape
	Weight float64
}

// Profile describes how to generate the projects of one taxon.
type Profile struct {
	Taxon taxa.Taxon
	Count int

	// DurationMonths is the inclusive range of project lifetimes.
	DurationMonths [2]int
	// InitialTables and AttrsPerTable size the schema at birth.
	InitialTables [2]int
	AttrsPerTable [2]int
	// PostBirthUnits is the range of attribute-level change units applied
	// after the schema's first version (zero for FROZEN).
	PostBirthUnits [2]int
	// SchemaShapes weights the placement of post-birth schema change.
	SchemaShapes []ShapeWeight
	// SourceShapes weights the placement of source churn.
	SourceShapes []ShapeWeight
	// LateBirthProb is the probability that the DDL file first appears
	// after a noticeable fraction of the project's life has passed.
	LateBirthProb float64
	// CoupleProb is the probability that source churn follows the schema's
	// change months (the "hand-in-hand" co-evolution mode); uncoupled
	// projects churn per SourceShapes regardless of the schema.
	CoupleProb float64
	// CommitsPerActiveMonth and FilesPerCommit drive source churn volume.
	CommitsPerActiveMonth [2]int
	FilesPerCommit        [2]int
}

// DefaultProfiles returns the per-taxon generation profiles calibrated to
// the published population: 33 FROZEN, 65 ALMOST FROZEN, 30 FOCUSED SHOT &
// FROZEN, 30 MODERATE, 17 FOCUSED SHOT & LOW, 20 ACTIVE = 195 projects.
func DefaultProfiles() []Profile {
	earlyHeavy := []ShapeWeight{{ShapeEarly, 0.65}, {ShapeUniform, 0.20}, {ShapeLate, 0.15}}
	balanced := []ShapeWeight{{ShapeEarly, 0.50}, {ShapeUniform, 0.25}, {ShapeLate, 0.25}}
	sourceMix := []ShapeWeight{{ShapeEarly, 0.45}, {ShapeUniform, 0.45}, {ShapeLate, 0.10}}
	return []Profile{
		{
			Taxon: taxa.Frozen, Count: 33,
			DurationMonths: [2]int{1, 48},
			InitialTables:  [2]int{1, 8}, AttrsPerTable: [2]int{2, 8},
			PostBirthUnits:        [2]int{0, 0},
			SourceShapes:          sourceMix,
			LateBirthProb:         0.50,
			CoupleProb:            0.45,
			CommitsPerActiveMonth: [2]int{1, 4}, FilesPerCommit: [2]int{1, 6},
		},
		{
			Taxon: taxa.AlmostFrozen, Count: 65,
			DurationMonths: [2]int{2, 60},
			InitialTables:  [2]int{1, 10}, AttrsPerTable: [2]int{2, 9},
			PostBirthUnits:        [2]int{1, 8},
			SchemaShapes:          earlyHeavy,
			SourceShapes:          sourceMix,
			LateBirthProb:         0.65,
			CoupleProb:            0.50,
			CommitsPerActiveMonth: [2]int{1, 5}, FilesPerCommit: [2]int{1, 7},
		},
		{
			Taxon: taxa.FocusedShotFrozen, Count: 30,
			DurationMonths: [2]int{4, 70},
			InitialTables:  [2]int{2, 10}, AttrsPerTable: [2]int{2, 8},
			PostBirthUnits:        [2]int{12, 40},
			SchemaShapes:          []ShapeWeight{{ShapeSingleSpike, 1}},
			SourceShapes:          sourceMix,
			LateBirthProb:         0.55,
			CoupleProb:            0.90,
			CommitsPerActiveMonth: [2]int{1, 6}, FilesPerCommit: [2]int{1, 7},
		},
		{
			Taxon: taxa.Moderate, Count: 30,
			DurationMonths: [2]int{6, 100},
			InitialTables:  [2]int{2, 12}, AttrsPerTable: [2]int{2, 9},
			PostBirthUnits:        [2]int{12, 60},
			SchemaShapes:          balanced,
			SourceShapes:          sourceMix,
			LateBirthProb:         0.60,
			CoupleProb:            0.40,
			CommitsPerActiveMonth: [2]int{2, 6}, FilesPerCommit: [2]int{1, 8},
		},
		{
			Taxon: taxa.FocusedShotLow, Count: 17,
			DurationMonths: [2]int{6, 110},
			InitialTables:  [2]int{3, 12}, AttrsPerTable: [2]int{3, 8},
			PostBirthUnits:        [2]int{25, 60},
			SchemaShapes:          []ShapeWeight{{ShapeDoubleSpike, 1}},
			SourceShapes:          sourceMix,
			LateBirthProb:         0.55,
			CoupleProb:            0.55,
			CommitsPerActiveMonth: [2]int{2, 6}, FilesPerCommit: [2]int{1, 8},
		},
		{
			Taxon: taxa.Active, Count: 20,
			DurationMonths: [2]int{24, 140},
			InitialTables:  [2]int{4, 15}, AttrsPerTable: [2]int{3, 10},
			PostBirthUnits:        [2]int{110, 400},
			SchemaShapes:          []ShapeWeight{{ShapeEarly, 0.55}, {ShapeUniform, 0.35}, {ShapeLate, 0.10}},
			SourceShapes:          []ShapeWeight{{ShapeEarly, 0.30}, {ShapeUniform, 0.60}, {ShapeLate, 0.10}},
			LateBirthProb:         0.65,
			CoupleProb:            0.90,
			CommitsPerActiveMonth: [2]int{3, 9}, FilesPerCommit: [2]int{2, 9},
		},
	}
}

// Config parameterizes corpus generation.
type Config struct {
	// Seed drives all randomness; the same seed reproduces the corpus
	// bit-for-bit.
	Seed int64
	// Profiles defaults to DefaultProfiles when nil.
	Profiles []Profile
	// Epoch is the earliest possible project start (defaults to 2008-01,
	// GitHub's dawn). Projects start uniformly within StartSpreadMonths of
	// it.
	Epoch             time.Time
	StartSpreadMonths int
	// Exec configures the execution engine projects are materialized on.
	// Each project derives its own rand source from Seed and its index, so
	// the corpus is bit-for-bit identical at any worker count. Generation
	// failures are configuration errors, so the engine always runs this
	// workload fail-fast regardless of Exec.Policy.
	Exec engine.Options

	// Cache is not read: generated repositories are not cached. A study
	// with study.Options.Cache set looks each project's result up by its
	// generator inputs (Spec.Fold) and generates only on a miss.
	//
	// Deprecated: set study.Options.Cache instead; this field has no
	// effect.
	Cache *cache.Cache

	// Obs, when non-nil, traces generation as a "generate" span (with
	// per-project task spans from the engine), feeds the unified metrics
	// registry and logs progress. Generation output never depends on it.
	Obs *obs.Observer
}

// DefaultConfig returns the study configuration with the given seed.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:              seed,
		Profiles:          DefaultProfiles(),
		Epoch:             time.Date(2008, time.January, 1, 0, 0, 0, 0, time.UTC),
		StartSpreadMonths: 72,
	}
}

// Project is one synthesized repository with its intended taxon.
type Project struct {
	Name    string
	Taxon   taxa.Taxon // the taxon the generator aimed for
	Repo    *vcs.Repository
	DDLPath string
}

// Generate synthesizes the corpus described by cfg.
func Generate(cfg Config) ([]*Project, error) {
	return GenerateContext(context.Background(), cfg)
}

// GenerateContext synthesizes the corpus described by cfg: EachContext
// appending every project to a slice. Projects are materialized
// concurrently (cfg.Exec bounded) yet returned in profile order, and
// every project seeds its own rand source from cfg.Seed and its index, so
// the result is bit-for-bit identical to the serial generator at any
// worker count.
func GenerateContext(ctx context.Context, cfg Config) ([]*Project, error) {
	var projects []*Project
	if _, err := EachContext(ctx, cfg, func(p *Project) error {
		projects = append(projects, p)
		return nil
	}); err != nil {
		return nil, err
	}
	return projects, nil
}

// generateFresh materializes one repository from scratch, seeding the
// project's private rand source from the corpus seed and project index.
func generateFresh(cfg Config, prof Profile, idx int) (*Project, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(idx)*7919))
	return generateProject(rng, cfg, prof, idx)
}

// ProjectName is the deterministic repository name of corpus index idx,
// independent of generation: callers that know only the index (e.g. a
// streaming pipeline naming tasks before projects materialize) get the
// same name the generated repository will carry.
func ProjectName(idx int) string {
	return fmt.Sprintf("org%02d/project-%03d", idx%20, idx)
}

// generateProject materializes one repository.
func generateProject(rng *rand.Rand, cfg Config, prof Profile, idx int) (*Project, error) {
	name := ProjectName(idx)
	repo := vcs.NewRepository(name)
	ddlPath := []string{"schema.sql", "db/schema.sql", "sql/create_tables.sql"}[rng.Intn(3)]

	duration := randRange(rng, prof.DurationMonths)
	start := cfg.Epoch.AddDate(0, rng.Intn(cfg.StartSpreadMonths), rng.Intn(28))

	// Schema birth month: usually 0; with LateBirthProb the DDL file
	// appears later in the project's life — offsets are skewed towards
	// small values but reach up to 70% of the life, which is what breaks
	// "always in advance" for part of the population, as in the paper.
	birthMonth := 0
	if rng.Float64() < prof.LateBirthProb && duration >= 3 {
		u := rng.Float64()
		birthMonth = 1 + int(u*u*0.9*float64(duration))
		// Leave room after the birth: the data set's elicitation requires
		// at least a second version of the DDL file.
		if birthMonth > duration-1 {
			birthMonth = duration - 1
		}
	}

	// Post-birth schema schedule over months birthMonth+1 .. duration.
	units := randRange(rng, prof.PostBirthUnits)
	shape := pickShape(rng, prof.SchemaShapes)
	var schemaSchedule []int
	if birthMonth < duration {
		schemaSchedule = placeUnits(rng, units, birthMonth+1, duration, shape)
	}

	// Source schedule: per-month commit counts over the whole life, with
	// guaranteed activity in month 0 and the final month so the project
	// spans its intended duration.
	srcShape := pickShape(rng, prof.SourceShapes)
	// Long-lived projects drift out of tight coupling: after the 5-year
	// mark the paper observes that extreme synchronicities empty out, so
	// the hand-in-hand mode becomes rare for them.
	coupleProb := prof.CoupleProb
	if duration > 60 {
		coupleProb *= 0.4
	}
	coupled := rng.Float64() < coupleProb
	srcCommits := buildSourceSchedule(rng, prof, duration, srcShape, coupled, schemaSchedule, birthMonth)

	// Cosmetic schema commits: comment-only edits of the DDL file. Real
	// histories always have a few (and the data set's elicitation requires
	// at least two versions of the file, which completely frozen schemata
	// satisfy exactly this way). Sampled after the activity schedules so
	// it does not perturb their calibrated randomness.
	cosmeticMonths := map[int]bool{}
	if birthMonth < duration {
		for k := 0; k < 1+rng.Intn(3); k++ {
			cosmeticMonths[birthMonth+1+rng.Intn(duration-birthMonth)] = true
		}
	}

	w := &projectWriter{
		rng:   rng,
		repo:  repo,
		start: start,
		dev:   fmt.Sprintf("dev%d", rng.Intn(4)),
	}

	sb := newSchemaBuilder(rng)
	tables := randRange(rng, prof.InitialTables)
	attrs := prof.AttrsPerTable
	for i := 0; i < tables; i++ {
		sb.addTable(randRange(rng, attrs))
	}

	for month := 0; month <= duration; month++ {
		commits := srcCommits[month]
		schemaUnits := 0
		if month >= birthMonth {
			if month == birthMonth {
				schemaUnits = -1 // sentinel: birth commit
			} else if month-birthMonth-1 < len(schemaSchedule) {
				schemaUnits = schemaSchedule[month-birthMonth-1]
			}
		}
		cosmetic := cosmeticMonths[month] && schemaUnits == 0
		if err := w.emitMonth(month, commits, schemaUnits, cosmetic, sb, prof, ddlPath); err != nil {
			return nil, err
		}
	}
	return &Project{Name: name, Taxon: prof.Taxon, Repo: repo, DDLPath: ddlPath}, nil
}

// randRange samples uniformly from the inclusive range r.
func randRange(rng *rand.Rand, r [2]int) int {
	if r[1] <= r[0] {
		return r[0]
	}
	return r[0] + rng.Intn(r[1]-r[0]+1)
}

// pickShape samples a shape from the weighted list (uniform if empty).
func pickShape(rng *rand.Rand, weights []ShapeWeight) Shape {
	if len(weights) == 0 {
		return ShapeUniform
	}
	total := 0.0
	for _, w := range weights {
		total += w.Weight
	}
	x := rng.Float64() * total
	for _, w := range weights {
		x -= w.Weight
		if x < 0 {
			return w.Shape
		}
	}
	return weights[len(weights)-1].Shape
}

// placeUnits distributes `units` change units over months [from, to]
// according to the shape, returning a schedule indexed from `from`.
//
// Early and late shapes confine their mass to a window at the respective
// end of the life (the window width itself is sampled): real schemata do
// not trickle changes forever — they "stop evolving", which is exactly the
// gravitation-to-rigidity effect the study measures.
func placeUnits(rng *rand.Rand, units, from, to int, shape Shape) []int {
	n := to - from + 1
	if n <= 0 || units <= 0 {
		return nil
	}
	schedule := make([]int, n)
	switch shape {
	case ShapeSingleSpike:
		// The spike lands early (within the first 30% of life), with a
		// small dribble in its vicinity.
		spikeAt := int(float64(n) * (0.02 + 0.20*rng.Float64()))
		dribble := 0
		if units > 12 {
			dribble = rng.Intn(3)
		}
		schedule[spikeAt] = units - dribble
		hi := minInt(n, spikeAt+1+n/4)
		for k := 0; k < dribble; k++ {
			schedule[rng.Intn(hi)]++
		}
	case ShapeDoubleSpike:
		// First-shot heavy: the earlier spike carries most of the change
		// (the paper's FS&L projects attain 75% of evolution early).
		first := int(float64(n) * (0.02 + 0.22*rng.Float64()))
		second := int(float64(n) * (0.45 + 0.45*rng.Float64()))
		if second <= first {
			second = first + 1
		}
		if second >= n {
			second = n - 1
		}
		dribble := units / 6
		spikes := units - dribble
		firstShare := spikes * 7 / 10
		schedule[first] = firstShare
		schedule[second] += spikes - firstShare
		for k := 0; k < dribble; k++ {
			schedule[rng.Intn(second+1)]++
		}
	default:
		// Windowed mass placement: early mass lives in an initial window,
		// late mass in a terminal window, uniform mass anywhere.
		window := n
		offset := 0
		if shape == ShapeEarly || shape == ShapeLate {
			window = maxInt(1, int(float64(n)*(0.08+0.32*rng.Float64())))
			if shape == ShapeLate {
				offset = n - window
			}
		}
		weights := make([]float64, n)
		var sum float64
		for i := 0; i < window; i++ {
			frac := float64(i) / math.Max(1, float64(window-1))
			w := 1.0
			if shape == ShapeEarly {
				w = math.Exp(-2 * frac)
			}
			if shape == ShapeLate {
				w = math.Exp(-2 * (1 - frac))
			}
			weights[offset+i] = w
			sum += w
		}
		for k := 0; k < units; k++ {
			x := rng.Float64() * sum
			for i, w := range weights {
				x -= w
				if x < 0 {
					schedule[i]++
					break
				}
			}
		}
	}
	return schedule
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// buildSourceSchedule returns per-month source commit counts for months
// 0..duration. Uncoupled projects follow the given shape; coupled projects
// churn in proportion to the schema's change months (heavy at the schema's
// birth and spikes), producing the "hand-in-hand" co-evolution mode.
func buildSourceSchedule(rng *rand.Rand, prof Profile, duration int, shape Shape, coupled bool, schemaSchedule []int, birthMonth int) []int {
	n := duration + 1
	weights := make([]float64, n)
	for m := 0; m < n; m++ {
		frac := float64(m) / math.Max(1, float64(duration))
		switch shape {
		case ShapeEarly:
			weights[m] = math.Exp(-4 * frac)
		case ShapeLate:
			weights[m] = math.Exp(-4 * (1 - frac))
		default:
			weights[m] = 1
		}
	}
	if coupled {
		// Blend a baseline with mass proportional to the schema's own
		// activity placement: the birth carries the initial burst, every
		// post-birth change month attracts commensurate churn. Half the
		// coupled projects are "anticipatory": part of the adaptation work
		// lands one month before the schema change (developers prepare the
		// code first), which is what lets a project stay ahead of time but
		// not of source — the asymmetry the paper observes.
		anticipate := rng.Float64() < 0.5
		schemaTotal := 0.0
		for _, u := range schemaSchedule {
			schemaTotal += float64(u)
		}
		birthMass := math.Max(schemaTotal*0.8, 4) // the initial declaration is a big change
		total := schemaTotal + birthMass
		mass := make([]float64, n)
		addMass := func(m int, v float64) {
			if anticipate && m > 0 {
				mass[m-1] += 0.35 * v
				mass[m] += 0.65 * v
				return
			}
			mass[m] += v
		}
		addMass(birthMonth, birthMass)
		for i, u := range schemaSchedule {
			if m := birthMonth + 1 + i; m < n && u > 0 {
				addMass(m, float64(u))
			}
		}
		for m := 0; m < n; m++ {
			weights[m] = 0.4*weights[m] + 2*float64(n)*mass[m]/total
		}
	}

	// Expected total commits scale with duration and the profile's rate.
	base := randRange(rng, prof.CommitsPerActiveMonth)
	totalCommits := maxInt(int(float64(base)*float64(n)*0.75), 2)
	counts := make([]int, n)
	wsum := 0.0
	for _, w := range weights {
		wsum += w
	}
	for k := 0; k < totalCommits; k++ {
		x := rng.Float64() * wsum
		for m, w := range weights {
			x -= w
			if x < 0 {
				counts[m]++
				break
			}
		}
	}
	counts[0] = maxInt(counts[0], 1)               // the creating commit
	counts[duration] = maxInt(counts[duration], 1) // the project spans its life
	return counts
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
