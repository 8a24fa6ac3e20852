// Result caching: the analysis memoizes one thing, a project's measure
// bundle — its entire analysis result (heartbeats, joint progress,
// measure suite, taxon, locality, parse health), addressed by the
// content of its two input histories (every DDL version's bytes and
// commit time, every project commit's time and churn) plus the analysis
// configuration. A generated project is also addressed by its generator
// inputs: its project entry names its bundle, so a warm study finds each
// result before generating anything. A miss generates, re-parses and
// re-diffs every version, as a cold run does.
package study

import (
	"time"

	"coevo/internal/cache"
	"coevo/internal/coevolution"
	"coevo/internal/corpus"
	"coevo/internal/heartbeat"
	"coevo/internal/history"
	"coevo/internal/taxa"
)

// MeasureStage is the measure-bundle stage's cache version. Bump whenever
// analyze()'s observable output changes (new measures, changed
// classification, changed locality rules) or the bundle codec changes.
// v2: reflection-free cache.Enc codec replaced encoding/gob.
// v3: the bundle carries the project's parse health and the key folds the
// configured parse dialect.
const MeasureStage = "study/measure/v3"

// ProjectStage is the project-entry stage's cache version. An entry maps
// a generated project's generator inputs to the key of its measure
// bundle and the DDL path the generator drew. Its key folds
// corpus.GenerateStage and MeasureStage, so bumping either stage moves
// every entry; bump ProjectStage itself only when the entry's framing
// changes.
const ProjectStage = "study/project/v1"

// projectKey addresses a generated project's entry by everything its
// result depends on that is known before the project exists: the
// generator inputs, the measure stage and the configuration analyze()
// observes.
func projectKey(sp corpus.Spec, opts Options) cache.Key {
	h := cache.NewHasher(ProjectStage)
	sp.Fold(h)
	h.String(MeasureStage)
	measureConfig(h, opts)
	return h.Sum()
}

// storeProject writes a project entry: the bundle's key, then the DDL
// path.
func storeProject(c *cache.Cache, key, bundle cache.Key, ddlPath string) {
	v := make([]byte, 0, len(bundle)+len(ddlPath))
	c.Put(key, append(append(v, bundle[:]...), ddlPath...))
}

// loadProject resolves a project entry to the result its bundle holds,
// with the entry's DDL path. An entry too short to hold a key and a path,
// or one whose bundle is gone, is a miss.
func loadProject(c *cache.Cache, key cache.Key) (*ProjectResult, bool) {
	v, ok := c.Get(key)
	if !ok || len(v) <= len(key) {
		return nil, false
	}
	res, ok := loadBundle(c, cache.Key(v[:len(key)]))
	if !ok {
		return nil, false
	}
	res.DDLPath = string(v[len(key):])
	return res, true
}

// measureConfig folds the configuration that analyze() observes into the
// key: the birth-counting convention and every taxon threshold.
func measureConfig(h *cache.Hasher, opts Options) {
	h.Bool(opts.History.CountBirth)
	h.Int(int64(opts.History.Dialect))
	h.Float(opts.Taxa.AlmostFrozenMax)
	h.Float(opts.Taxa.ActiveMin)
	h.Float(opts.Taxa.SpikeMin)
	h.Float(opts.Taxa.SingleSpikeShare)
	h.Float(opts.Taxa.DoubleSpikeShare)
}

// versionAt returns what a measure bundle's key folds of a project's
// i-th schema version: its commit time, deleted flag and raw bytes.
type versionAt func(i int) (when time.Time, deleted bool, raw []byte)

// measureKey addresses a project's measure bundle by its n schema
// versions, as at returns them, and every project commit, under the
// analysis configuration. The repository road folds a DDL file's versions
// before parsing them and ingest folds the versions of an extracted
// history, through this one fold: the same versions and commits give the
// same key on both.
func measureKey(n int, at versionAt, ph *history.ProjectHistory, opts Options) cache.Key {
	h := cache.NewHasher(MeasureStage)
	measureConfig(h, opts)
	h.Int(int64(n))
	for i := 0; i < n; i++ {
		when, deleted, raw := at(i)
		h.Time(when)
		h.Bool(deleted)
		h.Bytes(raw)
	}
	h.Int(int64(len(ph.Commits)))
	for _, c := range ph.Commits {
		h.Time(c.When)
		h.Int(int64(c.Files))
		h.Int(int64(c.Lines))
	}
	return h.Sum()
}

// storeBundle persists one analysis result with the explicit cache.Enc
// codec (no reflection, pooled scratch). Identity fields (Name, DDLPath,
// IntendedTaxon) are overwritten on load, so identical-content projects
// share one entry.
func storeBundle(c *cache.Cache, key cache.Key, res *ProjectResult) {
	e := cache.GetEnc()
	defer cache.PutEnc(e)
	e.Uvarint(uint64(res.Taxon))
	e.Int(int64(res.DurationMonths))
	e.Int(int64(res.SchemaCommits))
	e.Int(int64(res.ActiveSchemaCommits))
	e.Int(int64(res.ProjectCommits))
	e.Int(int64(res.FileUpdates))
	e.Int(int64(res.TotalSchemaActivity))

	e.Bool(res.Joint != nil)
	if j := res.Joint; j != nil {
		e.Int(int64(j.Start))
		encodeFloats(e, j.Project)
		encodeFloats(e, j.Schema)
		encodeFloats(e, j.Time)
	}

	e.Bool(res.Measures != nil)
	if m := res.Measures; m != nil {
		e.Int(int64(m.DurationMonths))
		e.Float(m.Sync5)
		e.Float(m.Sync10)
		e.Float(m.AdvanceTime)
		e.Float(m.AdvanceSource)
		e.Bool(m.AdvanceDefined)
		e.Bool(m.AlwaysAheadOfTime)
		e.Bool(m.AlwaysAheadOfSource)
		e.Bool(m.AlwaysAheadOfBoth)
		e.Float(m.Attain50)
		e.Float(m.Attain75)
		e.Float(m.Attain80)
		e.Float(m.Attain100)
	}

	e.Int(int64(res.Locality.Tables))
	e.Int(int64(res.Locality.ChangedTables))
	e.Float(res.Locality.TopShare)
	e.Float(res.Locality.UnchangedShare)
	e.Int(int64(res.Locality.TotalChanges))

	hp := res.ParseHealth
	e.String(hp.Dialect)
	e.Int(int64(hp.Versions))
	e.Int(int64(hp.CleanVersions))
	e.Int(int64(hp.Stats.Attempted))
	e.Int(int64(hp.Stats.Parsed))
	e.Int(int64(hp.Stats.Recovered))
	e.Int(int64(hp.Stats.Dropped))
	e.Int(int64(hp.Lex))
	e.Int(int64(hp.Syntax))
	e.Int(int64(hp.Semantic))
	e.Int(int64(hp.Uncategorized))
	e.Int(int64(hp.MergesSkipped))
	e.Int(int64(hp.NoOpCommits))

	c.Put(key, e.Copy())
}

// loadBundle retrieves one analysis result; a decode failure (stale or
// foreign value) degrades to a miss.
func loadBundle(c *cache.Cache, key cache.Key) (*ProjectResult, bool) {
	v, ok := c.Get(key)
	if !ok {
		return nil, false
	}
	d := cache.NewDec(v)
	res := &ProjectResult{
		Taxon:               taxa.Taxon(d.Uvarint()),
		DurationMonths:      int(d.Int()),
		SchemaCommits:       int(d.Int()),
		ActiveSchemaCommits: int(d.Int()),
		ProjectCommits:      int(d.Int()),
		FileUpdates:         int(d.Int()),
		TotalSchemaActivity: int(d.Int()),
	}
	if d.Bool() {
		res.Joint = &coevolution.JointProgress{
			Start:   heartbeat.Month(d.Int()),
			Project: decodeFloats(d),
			Schema:  decodeFloats(d),
			Time:    decodeFloats(d),
		}
	}
	if d.Bool() {
		res.Measures = &coevolution.Measures{
			DurationMonths:      int(d.Int()),
			Sync5:               d.Float(),
			Sync10:              d.Float(),
			AdvanceTime:         d.Float(),
			AdvanceSource:       d.Float(),
			AdvanceDefined:      d.Bool(),
			AlwaysAheadOfTime:   d.Bool(),
			AlwaysAheadOfSource: d.Bool(),
			AlwaysAheadOfBoth:   d.Bool(),
			Attain50:            d.Float(),
			Attain75:            d.Float(),
			Attain80:            d.Float(),
			Attain100:           d.Float(),
		}
	}
	res.Locality.Tables = int(d.Int())
	res.Locality.ChangedTables = int(d.Int())
	res.Locality.TopShare = d.Float()
	res.Locality.UnchangedShare = d.Float()
	res.Locality.TotalChanges = int(d.Int())
	res.ParseHealth = history.ParseHealth{
		Dialect:       d.String(),
		Versions:      int(d.Int()),
		CleanVersions: int(d.Int()),
	}
	res.ParseHealth.Stats.Attempted = int(d.Int())
	res.ParseHealth.Stats.Parsed = int(d.Int())
	res.ParseHealth.Stats.Recovered = int(d.Int())
	res.ParseHealth.Stats.Dropped = int(d.Int())
	res.ParseHealth.Lex = int(d.Int())
	res.ParseHealth.Syntax = int(d.Int())
	res.ParseHealth.Semantic = int(d.Int())
	res.ParseHealth.Uncategorized = int(d.Int())
	res.ParseHealth.MergesSkipped = int(d.Int())
	res.ParseHealth.NoOpCommits = int(d.Int())
	if d.Err() != nil {
		return nil, false
	}
	return res, true
}

func encodeFloats(e *cache.Enc, v []float64) {
	e.Uvarint(uint64(len(v)))
	for _, f := range v {
		e.Float(f)
	}
}

func decodeFloats(d *cache.Dec) []float64 {
	n := d.Uvarint()
	if d.Failed() || n == 0 {
		return nil
	}
	capHint := n
	if capHint > 4096 { // don't trust a corrupt length for preallocation
		capHint = 4096
	}
	v := make([]float64, 0, capHint)
	for i := uint64(0); i < n && !d.Failed(); i++ {
		v = append(v, d.Float())
	}
	return v
}
