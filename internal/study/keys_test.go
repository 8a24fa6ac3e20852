package study

import (
	"context"
	"testing"

	"coevo/internal/corpus"
	"coevo/internal/history"
)

// frozenMeasureKey is the measure-stage cache key of the first project of
// the seed-2023 corpus, which both entry points must compute. A cache
// written by any earlier build is addressed by these bytes: a change to
// the key's field sequence or framing must come with a MeasureStage bump.
const frozenMeasureKey = "1fcdc8ca3f27511952150d1ede4deaf06a5f4cc213eaabbd674dbc93b79b0fbf"

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
	if got := measureKeyFromVersions(fvs, ph, opts).String(); got != frozenMeasureKey {
		t.Errorf("%s: measureKeyFromVersions = %s, want %s", p.Name, got, frozenMeasureKey)
	}
	if got := measureKeyFromHistory(sh, ph, opts).String(); got != frozenMeasureKey {
		t.Errorf("%s: measureKeyFromHistory = %s, want %s", p.Name, got, frozenMeasureKey)
	}
}
