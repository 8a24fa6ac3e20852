// Differential acceptance tests for the content-addressed result cache:
// a study run must render byte-identical artifacts with no cache, a cold
// cache, a warm cache, and a deliberately corrupted cache, at any worker
// count. The cache may only ever change how fast an answer arrives,
// never the answer.
package coevo_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"coevo"
	"coevo/internal/corpus"
)

// cacheTestConfig is a small one-project-per-taxon corpus, enough to
// exercise every pipeline stage while staying fast.
func cacheTestConfig(seed int64) coevo.CorpusConfig {
	cfg := coevo.DefaultCorpusConfig(seed)
	profiles := corpus.DefaultProfiles()
	for i := range profiles {
		profiles[i].Count = 2
		if profiles[i].DurationMonths[1] > 30 {
			profiles[i].DurationMonths[1] = 30
		}
	}
	cfg.Profiles = profiles
	return cfg
}

// studyInput is one route from the test corpus to a dataset. perProject
// is the number of cache entries each project stores on a cold run and
// hits on a warm one: the materialized route memoizes the measure bundle
// alone, while the stream also keys each generated project by its
// generator inputs, so a warm stream generates nothing.
type studyInput struct {
	name       string
	run        func(t *testing.T, cfg coevo.CorpusConfig, opts coevo.Options) *coevo.Dataset
	perProject int64
}

var studyInputs = []studyInput{
	{"materialized", func(t *testing.T, cfg coevo.CorpusConfig, opts coevo.Options) *coevo.Dataset {
		projects, err := coevo.GenerateCorpus(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, err := coevo.AnalyzeCorpus(projects, opts)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}, 1},
	{"stream", func(t *testing.T, cfg coevo.CorpusConfig, opts coevo.Options) *coevo.Dataset {
		var sink datasetSink
		sum, err := coevo.StreamCorpus(context.Background(), coevo.NewCorpusSource(cfg), &sink, opts)
		if err != nil {
			t.Fatal(err)
		}
		sink.d.Failures = sum.Failures
		return &sink.d
	}, 2},
}

// datasetSink collects a stream's results in corpus order.
type datasetSink struct{ d coevo.Dataset }

func (s *datasetSink) Add(p *coevo.ProjectResult) error {
	s.d.Projects = append(s.d.Projects, p)
	return nil
}

// artifactHashes runs in under the given cache and worker count and
// returns the sha256 of every rendered artifact, with the engine stages
// the analysis tasks recorded.
func artifactHashes(t *testing.T, in studyInput, seed int64, workers int, c *coevo.Cache) (map[string]string, map[string]bool) {
	t.Helper()
	cfg := cacheTestConfig(seed)
	cfg.Exec.Workers = workers
	opts := coevo.DefaultOptions()
	opts.Cache = c
	opts.Exec.Workers = workers
	stages := map[string]bool{}
	opts.Exec.OnEvent = func(e coevo.ExecEvent) { // the engine serializes events
		for _, st := range e.Stages {
			stages[st.Name] = true
		}
	}
	d := in.run(t, cfg, opts)
	if n := len(d.Failures); n != 0 {
		t.Fatalf("%d projects failed: %+v", n, d.Failures)
	}
	hashes := map[string]string{}
	for name, write := range renderArtifacts(d) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hashes[name] = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	}
	return hashes, stages
}

// corruptEveryEntry flips one payload byte in every entry of an on-disk
// cache store, so every subsequent read must take the self-heal path.
func corruptEveryEntry(t *testing.T, dir string) int {
	t.Helper()
	corrupted := 0
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		raw[len(raw)-1] ^= 0xA5
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return err
		}
		corrupted++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("no cache entries found to corrupt")
	}
	return corrupted
}

// TestStudyCacheByteIdentical: the golden differential harness. The
// uncached run is the reference; cold-cache, warm-cache and
// corrupted-cache runs of every study input must hash identically to
// it, at one worker and at NumCPU workers, and cost exactly the cache
// traffic their memoized stages imply.
func TestStudyCacheByteIdentical(t *testing.T) {
	const seed, projects = 2023, 12
	reference, _ := artifactHashes(t, studyInputs[0], seed, 1, nil)

	for _, workers := range []int{1, runtime.NumCPU()} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, in := range studyInputs {
				t.Run(in.name, func(t *testing.T) {
					dir := filepath.Join(t.TempDir(), "cache")
					entries := in.perProject * projects

					cold, err := coevo.NewCache(coevo.CacheOptions{Dir: dir})
					if err != nil {
						t.Fatal(err)
					}
					if got, _ := artifactHashes(t, in, seed, workers, cold); !hashesEqual(got, reference) {
						t.Errorf("cold cache run differs from uncached reference:\n%v\n%v", got, reference)
					}
					if s := cold.Stats(); s.Puts != entries || s.Misses != entries || s.Hits != 0 {
						t.Errorf("cold run: %d puts, %d misses, %d hits; want %d, %d and 0: %s",
							s.Puts, s.Misses, s.Hits, entries, entries, s)
					}

					warm, err := coevo.NewCache(coevo.CacheOptions{Dir: dir})
					if err != nil {
						t.Fatal(err)
					}
					got, stages := artifactHashes(t, in, seed, workers, warm)
					if !hashesEqual(got, reference) {
						t.Errorf("warm cache run differs from uncached reference:\n%v\n%v", got, reference)
					}
					if s := warm.Stats(); s.Hits != entries || s.DiskHits != entries || s.Misses != 0 || s.Puts != 0 {
						t.Errorf("warm run: %d hits (%d disk), %d misses, %d puts; want %d from disk, 0 and 0: %s",
							s.Hits, s.DiskHits, s.Misses, s.Puts, entries, s)
					}
					if in.name == "stream" && stages["generate"] {
						t.Errorf("warm stream generated projects; stages %v", stages)
					}

					corruptEveryEntry(t, dir)
					healed, err := coevo.NewCache(coevo.CacheOptions{Dir: dir})
					if err != nil {
						t.Fatal(err)
					}
					if got, _ := artifactHashes(t, in, seed, workers, healed); !hashesEqual(got, reference) {
						t.Errorf("corrupted cache run differs from uncached reference:\n%v\n%v", got, reference)
					}
					s := healed.Stats()
					if s.Corrupt == 0 {
						t.Errorf("corrupted entries never detected: %s", s)
					}
					if s.Hits > 0 && s.MemoryHits < s.Hits {
						t.Errorf("corrupted run should only hit entries it rewrote itself: %s", s)
					}
				})
			}
		})
	}
}

func hashesEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestFullStudyWarmCacheMatchesSerialGolden pins the cached pipeline to
// the pre-engine serial golden hashes over the full 195-project corpus:
// a cold and then a warm cached run must both reproduce the published
// artifacts bit-for-bit.
func TestFullStudyWarmCacheMatchesSerialGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus study in -short mode")
	}
	dir := filepath.Join(t.TempDir(), "cache")
	for _, phase := range []string{"cold", "warm"} {
		c, err := coevo.NewCache(coevo.CacheOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		cfg := coevo.DefaultCorpusConfig(2023)
		projects, err := coevo.GenerateCorpus(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts := coevo.DefaultOptions()
		opts.Cache = c
		d, err := coevo.AnalyzeCorpus(projects, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d.Size() != 195 {
			t.Fatalf("%s: Size = %d, want 195", phase, d.Size())
		}
		for name, write := range renderArtifacts(d) {
			var buf bytes.Buffer
			if err := write(&buf); err != nil {
				t.Fatalf("%s: %s: %v", phase, name, err)
			}
			got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
			if got != serialGolden[name] {
				t.Errorf("%s: %s: hash %s differs from serial golden %s", phase, name, got, serialGolden[name])
			}
		}
		if phase == "warm" {
			if s := c.Stats(); s.Hits == 0 {
				t.Errorf("warm phase never hit: %s", s)
			}
		}
	}
}
