package study

import (
	"bytes"
	"reflect"
	"testing"

	"coevo/internal/cache"
	"coevo/internal/corpus"
	"coevo/internal/engine"
)

// entryTestConfig is a two-per-taxon corpus with lifetimes capped for
// speed.
func entryTestConfig() corpus.Config {
	cfg := corpus.DefaultConfig(8)
	cfg.Profiles = corpus.DefaultProfiles()
	for i := range cfg.Profiles {
		cfg.Profiles[i].Count = 2
		if cfg.Profiles[i].DurationMonths[1] > 48 {
			cfg.Profiles[i].DurationMonths[1] = 48
		}
	}
	return cfg
}

// streamWith streams cfg's corpus under c and returns the dataset and
// how many projects the run generated.
func streamWith(t *testing.T, cfg corpus.Config, c *cache.Cache) (*Dataset, int) {
	t.Helper()
	opts := DefaultOptions()
	opts.Cache = c
	opts.Exec.Workers = 2
	generated := 0
	opts.Exec.OnEvent = func(e engine.Event) { // the engine serializes events
		for _, st := range e.Stages {
			if st.Name == "generate" {
				generated++
			}
		}
	}
	d, err := collect(func(sink Sink) (*StreamSummary, error) {
		return StreamCorpus(t.Context(), corpus.NewSource(cfg), sink, opts)
	})
	if err != nil {
		t.Fatalf("StreamCorpus: %v", err)
	}
	return d, generated
}

// TestProjectEntryMissRegenerates: a project entry too short to name a
// bundle, and an entry whose bundle is gone, each make the stream
// regenerate that one project, store its entry again and deliver the
// reference result. Every other project is restored without generating.
func TestProjectEntryMissRegenerates(t *testing.T) {
	cfg := entryTestConfig()
	reference, _ := streamWith(t, cfg, nil)

	filled := cache.NewMemory()
	if d, generated := streamWith(t, cfg, filled); !reflect.DeepEqual(d, reference) || generated != len(reference.Projects)+len(reference.Failures) {
		t.Fatalf("cold run generated %d projects and matched the reference: %v", generated, reflect.DeepEqual(d, reference))
	}

	// The first project's entry names its bundle, then its DDL path.
	sp, _, _ := corpus.NewSource(cfg).Claim()
	key := projectKey(sp, DefaultOptions())
	entry, ok := filled.Get(key)
	if !ok {
		t.Fatal("cold run stored no entry for the first project")
	}
	if want := reference.Projects[0].DDLPath; len(entry) != len(cache.Key{})+len(want) || string(entry[len(cache.Key{}):]) != want {
		t.Fatalf("entry %q does not end in the DDL path %q", entry, want)
	}
	bundle := cache.Key(entry[:len(cache.Key{})])

	// copyFilled copies every project entry and the bundle each names into
	// a fresh cache, leaving out the first project's bundle when asked.
	copyFilled := func(dropBundle bool) *cache.Cache {
		c := cache.NewMemory()
		src := corpus.NewSource(cfg)
		for {
			sp, _, ok := src.Claim()
			if !ok {
				return c
			}
			k := projectKey(sp, DefaultOptions())
			v, ok := filled.Get(k)
			if !ok {
				continue // a project whose analysis failed has no entry
			}
			c.Put(k, v)
			if b := cache.Key(v[:len(cache.Key{})]); !dropBundle || b != bundle {
				bv, _ := filled.Get(b)
				c.Put(b, bv)
			}
		}
	}

	for _, tc := range []struct {
		name    string
		prepare func() *cache.Cache
		puts    int64 // the entry, plus the bundle when it was gone
	}{
		{"short entry", func() *cache.Cache {
			c := copyFilled(false)
			c.Put(key, entry[:len(cache.Key{})])
			return c
		}, 1},
		{"bundle gone", func() *cache.Cache { return copyFilled(true) }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.prepare()
			before := c.Stats()
			d, generated := streamWith(t, cfg, c)
			if !reflect.DeepEqual(d, reference) {
				t.Error("the run's dataset differs from the uncached reference")
			}
			if generated != 1 {
				t.Errorf("generated %d projects, want only the first", generated)
			}
			if s := c.Stats().Sub(before); s.Puts != tc.puts {
				t.Errorf("%d puts, want %d: %s", s.Puts, tc.puts, s)
			}
			if got, ok := c.Get(key); !ok || !bytes.Equal(got, entry) {
				t.Errorf("entry after the run = %q, want %q", got, entry)
			}
			if _, ok := c.Get(bundle); !ok {
				t.Error("the first project's bundle is still missing")
			}
		})
	}
}
