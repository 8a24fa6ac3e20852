package study

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"coevo/internal/cache"
	"coevo/internal/corpus"
	"coevo/internal/history"
)

// frozenMeasureKey is the measure-stage cache key of the first project of
// the seed-2023 corpus, which both entry points must compute. A cache
// written by any earlier build is addressed by these bytes: a change to
// the key's field sequence or framing must come with a MeasureStage bump.
const frozenMeasureKey = "1fcdc8ca3f27511952150d1ede4deaf06a5f4cc213eaabbd674dbc93b79b0fbf"

// frozenProjectKey is the project-entry key of project 40 of the
// seed-2023 corpus (profile 1) under the default options. A change to
// its field sequence or framing must come with a ProjectStage bump; a
// change to the generator inputs it folds, with a corpus.GenerateStage
// bump.
const frozenProjectKey = "c466f1b0dac52ce8888fd2e91ccdaf69fc27d6e6c57e7b2fe3d52ca4c675065c"

func TestCacheKeysFrozen(t *testing.T) {
	p, err := corpus.NewSource(corpus.DefaultConfig(2023)).Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	fvs := p.Repo.FileVersions(p.DDLPath)
	ph, err := history.ExtractProjectHistory(p.Repo)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := history.ExtractSchemaHistoryFromVersions(p.DDLPath, fvs, opts.History)
	if err != nil {
		t.Fatal(err)
	}
	dated := make([]history.DatedContent, len(fvs))
	for i, fv := range fvs {
		dated[i] = history.DatedContent{When: fv.Commit.When(), Content: fv.Content}
	}
	ingested, err := history.SchemaHistoryFromContents(p.DDLPath, dated, opts.History)
	if err != nil {
		t.Fatal(err)
	}
	fileVersion := func(i int) (time.Time, bool, []byte) { return fvs[i].Commit.When(), fvs[i].Deleted, fvs[i].Content }
	if got := measureKey(len(fvs), fileVersion, ph, opts).String(); got != frozenMeasureKey {
		t.Errorf("%s: measureKey of the file versions = %s, want %s", p.Name, got, frozenMeasureKey)
	}
	for _, h := range []struct {
		name string
		sh   *history.SchemaHistory
	}{{"repository history", sh}, {"ingested history", ingested}} {
		version := func(i int) (time.Time, bool, []byte) {
			v := &h.sh.Versions[i]
			return v.When(), v.Deleted, v.Raw
		}
		if got := measureKey(len(h.sh.Versions), version, ph, opts).String(); got != frozenMeasureKey {
			t.Errorf("%s: measureKey of the %s = %s, want %s", p.Name, h.name, got, frozenMeasureKey)
		}
	}

	src := corpus.NewSource(corpus.DefaultConfig(2023))
	var sp corpus.Spec
	for i := 0; i <= 40; i++ {
		sp, _, _ = src.Claim()
	}
	if got := projectKey(sp, opts).String(); got != frozenProjectKey {
		t.Errorf("projectKey(seed 2023, project 40) = %s, want %s", got, frozenProjectKey)
	}
}

// The sha256 of the two values a cold study stores for project 0 of the
// seed-2023 corpus: its encoded measure bundle and its project entry.
// TestCacheKeysFrozen pins where a value lives; these pin what it holds,
// so output that changes while its stage string stays the same fails
// here instead of serving stale entries to every warm run.
const (
	frozenBundleDigest = "35a42ff11c43ee4f6e9c983da1b192e190e948025ba42a7f7619e7bb8f56dc5f"
	frozenEntryDigest  = "0b8d003f84e5378ddcde00c5d851bea38450784a190188f0678b43633e666752"
)

func TestCacheValuesFrozen(t *testing.T) {
	// Project 0 of the seed-2023 corpus is the first spec of its first
	// profile, so a one-project corpus of that profile produces it alone.
	cfg := corpus.DefaultConfig(2023)
	cfg.Profiles = cfg.Profiles[:1]
	cfg.Profiles[0].Count = 1
	c := cache.NewMemory()
	opts := DefaultOptions()
	opts.Cache = c
	sp, _, _ := corpus.NewSource(cfg).Claim()
	if _, err := StreamCorpus(t.Context(), corpus.NewSource(cfg), &DatasetSink{}, opts); err != nil {
		t.Fatal(err)
	}
	entry, ok := c.Get(projectKey(sp, opts))
	if !ok || len(entry) < len(cache.Key{}) {
		t.Fatalf("no project entry stored for %s: %q", sp.Name(), entry)
	}
	bundle, ok := c.Get(cache.Key(entry[:len(cache.Key{})]))
	if !ok {
		t.Fatalf("no measure bundle stored for %s", sp.Name())
	}
	for _, v := range []struct {
		value             []byte
		want, stage, bump string
	}{
		{bundle, frozenBundleDigest, MeasureStage, "MeasureStage"},
		{entry, frozenEntryDigest, ProjectStage, "ProjectStage"},
	} {
		sum := sha256.Sum256(v.value)
		if got := hex.EncodeToString(sum[:]); got != v.want {
			t.Errorf("%s: its %s value hashes %s, want %s: the stage's output changed, so bump %s",
				sp.Name(), v.stage, got, v.want, v.bump)
		}
	}
}
