package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"coevo/internal/cache"
)

// frozenHeads are the head hashes of the first three projects of the
// seed-2023 study corpus, and frozenCorpusDigest is the sha256 over every
// commit hash of that corpus, one "%s\n" line per commit in corpus and
// creation order. A change to either value is a change to the
// generator's output and must come with a GenerateStage bump, which every
// cache key standing for a generated project folds.
var frozenHeads = []string{
	"45d316c386ea25ad6438b74f6a7dc94afb26cc773d19d38f0b80af3528c5ac39",
	"b356dc3048831ec52c2ca82de018ab6a4d8923de32046bc1055cbe67da89f3c5",
	"2ced6b01f47667830ce872f0f5c9d5b7a10fffcf732524709f9510139674dc1a",
}

const (
	frozenCorpusCommits = 26465
	frozenCorpusDigest  = "2d0f99214e0540fd5489eedb82e80434fc92c88789ad769f98b7395eaf901578"
)

func TestCommitHashesFrozen(t *testing.T) {
	projects, err := Generate(DefaultConfig(2023))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range frozenHeads {
		if got := fmt.Sprintf("%s", projects[i].Repo.Head().Hash); got != want {
			t.Errorf("project %d head = %s, want %s", i, got, want)
		}
	}
	h := sha256.New()
	commits := 0
	for _, p := range projects {
		for _, c := range p.Repo.Commits() {
			fmt.Fprintf(h, "%s\n", c.Hash)
			commits++
		}
	}
	if commits != frozenCorpusCommits {
		t.Errorf("corpus has %d commits, want %d", commits, frozenCorpusCommits)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != frozenCorpusDigest {
		t.Errorf("digest over %d commit hashes = %s, want %s", commits, got, frozenCorpusDigest)
	}
}

// frozenSpecKey is the key of project 40 of the seed-2023 corpus
// (profile 1) as Spec.Fold frames it under frozenSpecStage. Every cache
// key that stands for a generated project folds these bytes, so a change
// to Fold's field sequence or framing must come with a GenerateStage bump.
const (
	frozenSpecStage = "corpus/spec"
	frozenSpecKey   = "a5d13f4546ee5bb19ffb0c9988582150b477c5dc0b71b768ff0b2bc9f37ccb78"
)

func TestCacheKeysFrozen(t *testing.T) {
	sp := NewSource(DefaultConfig(2023)).specs[40]
	if sp.prof.Taxon != DefaultProfiles()[1].Taxon {
		t.Fatalf("project 40 has taxon %s, want profile 1's %s", sp.prof.Taxon, DefaultProfiles()[1].Taxon)
	}
	h := cache.NewHasher(frozenSpecStage)
	sp.Fold(h)
	if got := h.Sum().String(); got != frozenSpecKey {
		t.Errorf("Spec.Fold(seed 2023, profile 1, 40) = %s, want %s", got, frozenSpecKey)
	}
}
