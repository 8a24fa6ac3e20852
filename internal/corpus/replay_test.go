package corpus

import (
	"bytes"
	"testing"

	"coevo/internal/cache"
	"coevo/internal/vcs"
)

// tinyConfig is a one-project-per-taxon corpus small enough for replay
// round-trip tests.
func tinyConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	profiles := DefaultProfiles()
	for i := range profiles {
		profiles[i].Count = 1
		if profiles[i].DurationMonths[1] > 24 {
			profiles[i].DurationMonths[1] = 24
		}
	}
	cfg.Profiles = profiles
	return cfg
}

// TestGenerateWarmCacheIsBitIdentical: generating with a warm cache
// replays every repository bit-for-bit — same head hashes, names, taxa
// and DDL paths as a cold (and an uncached) run.
func TestGenerateWarmCacheIsBitIdentical(t *testing.T) {
	plain, err := Generate(tinyConfig(7))
	if err != nil {
		t.Fatal(err)
	}

	c, err := cache.New(cache.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfgCold := tinyConfig(7)
	cfgCold.Cache = c
	cold, err := Generate(cfgCold)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits != 0 || s.Puts == 0 {
		t.Fatalf("cold run stats: %s", s)
	}

	cfgWarm := tinyConfig(7)
	cfgWarm.Cache = c
	warm, err := Generate(cfgWarm)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits < int64(len(plain)) {
		t.Fatalf("warm run should hit for every project: %s", s)
	}

	for _, got := range [][]*Project{cold, warm} {
		if len(got) != len(plain) {
			t.Fatalf("project count %d != %d", len(got), len(plain))
		}
		for i := range plain {
			p, q := plain[i], got[i]
			if p.Name != q.Name || p.Taxon != q.Taxon || p.DDLPath != q.DDLPath {
				t.Errorf("project %d metadata differs: %+v vs %+v", i, p, q)
			}
			ph, qh := p.Repo.Head(), q.Repo.Head()
			if ph == nil || qh == nil || ph.Hash != qh.Hash {
				t.Errorf("project %d head hash differs", i)
			}
			if p.Repo.CommitCount() != q.Repo.CommitCount() {
				t.Errorf("project %d commit count %d != %d", i, p.Repo.CommitCount(), q.Repo.CommitCount())
			}
		}
	}
}

// TestProjectCodecRejectsTampering: a tampered replay script is detected
// (framing error or head-hash mismatch), never silently accepted.
func TestProjectCodecRejectsTampering(t *testing.T) {
	cfg := tinyConfig(9)
	p, err := generateFresh(cfg, cfg.Profiles[5], 5) // ACTIVE: biggest repo
	if err != nil {
		t.Fatal(err)
	}
	enc, err := encodeProject(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeProject(enc); err != nil {
		t.Fatalf("intact script rejected: %v", err)
	}
	// Truncation.
	if _, err := decodeProject(enc[:len(enc)/2]); err == nil {
		t.Error("truncated script accepted")
	}
	// Payload tamper: flip a byte in the middle (some content blob or
	// message); either the framing breaks or the head hash mismatches.
	tampered := append([]byte(nil), enc...)
	tampered[len(tampered)/2] ^= 0x01
	if _, err := decodeProject(tampered); err == nil {
		t.Error("tampered script accepted")
	}
}

// TestProjectKeySensitivity: every generation input participates in the
// key.
func TestProjectKeySensitivity(t *testing.T) {
	cfg := tinyConfig(1)
	base := projectKey(cfg, cfg.Profiles[1], 3)
	if projectKey(cfg, cfg.Profiles[1], 3) != base {
		t.Error("key not deterministic")
	}
	if projectKey(cfg, cfg.Profiles[1], 4) == base {
		t.Error("index not keyed")
	}
	if projectKey(cfg, cfg.Profiles[2], 3) == base {
		t.Error("profile not keyed")
	}
	cfg2 := tinyConfig(2)
	if projectKey(cfg2, cfg2.Profiles[1], 3) == base {
		t.Error("seed not keyed")
	}
	cfg3 := tinyConfig(1)
	cfg3.StartSpreadMonths = 12
	if projectKey(cfg3, cfg3.Profiles[1], 3) == base {
		t.Error("start spread not keyed")
	}
	cfg4 := tinyConfig(1)
	prof := cfg4.Profiles[1]
	prof.LateBirthProb += 0.01
	if projectKey(cfg4, prof, 3) == base {
		t.Error("profile float field not keyed")
	}
	prof = cfg4.Profiles[1]
	prof.SchemaShapes = append([]ShapeWeight(nil), prof.SchemaShapes...)
	prof.SchemaShapes[0].Weight += 0.01
	if projectKey(cfg4, prof, 3) == base {
		t.Error("shape weights not keyed")
	}
}

// TestReplayOwnsItsBytes: decoding reads the value through views, but
// the replayed repository keeps none of them. After every byte of the
// value is overwritten, the repository still equals one decoded from a
// pristine copy: messages, authors, change lists, changed and versioned
// content, head hash.
func TestReplayOwnsItsBytes(t *testing.T) {
	cfg := tinyConfig(9)
	p, err := generateFresh(cfg, cfg.Profiles[5], 5) // ACTIVE: biggest repo
	if err != nil {
		t.Fatal(err)
	}
	value, err := encodeProject(p)
	if err != nil {
		t.Fatal(err)
	}
	pristine := bytes.Clone(value)
	got, err := decodeProject(value)
	if err != nil {
		t.Fatal(err)
	}
	for i := range value {
		value[i] = ^value[i]
	}
	want, err := decodeProject(pristine)
	if err != nil {
		t.Fatal(err)
	}

	if got.Repo.Head().Hash != want.Repo.Head().Hash {
		t.Errorf("head %s, want %s", got.Repo.Head().Hash, want.Repo.Head().Hash)
	}
	gotLog, wantLog := got.Repo.Log(vcs.LogOptions{Reverse: true}), want.Repo.Log(vcs.LogOptions{Reverse: true})
	if len(gotLog) != len(wantLog) {
		t.Fatalf("%d commits, want %d", len(gotLog), len(wantLog))
	}
	paths := map[string]bool{}
	for i := range wantLog {
		g, w := gotLog[i], wantLog[i]
		if g.Commit.Message != w.Commit.Message || g.Commit.Author != w.Commit.Author {
			t.Fatalf("commit %d: %q by %v, want %q by %v", i, g.Commit.Message, g.Commit.Author, w.Commit.Message, w.Commit.Author)
		}
		if len(g.Changes) != len(w.Changes) {
			t.Fatalf("commit %d: %d changes, want %d", i, len(g.Changes), len(w.Changes))
		}
		for j, wc := range w.Changes {
			gc := g.Changes[j]
			if gc.Status != wc.Status || gc.Path != wc.Path || gc.OldPath != wc.OldPath {
				t.Fatalf("commit %d change %d: %c %q %q, want %c %q %q", i, j, gc.Status, gc.Path, gc.OldPath, wc.Status, wc.Path, wc.OldPath)
			}
			gb, _ := got.Repo.ChangedContent(gc)
			wb, _ := want.Repo.ChangedContent(wc)
			if !bytes.Equal(gb, wb) {
				t.Fatalf("commit %d change %d (%s): content differs", i, j, wc.Path)
			}
			paths[wc.Path] = true
		}
	}
	for path := range paths {
		gv, wv := got.Repo.FileVersions(path), want.Repo.FileVersions(path)
		if len(gv) != len(wv) {
			t.Fatalf("%s: %d versions, want %d", path, len(gv), len(wv))
		}
		for i := range wv {
			if gv[i].Deleted != wv[i].Deleted || !bytes.Equal(gv[i].Content, wv[i].Content) {
				t.Fatalf("%s version %d differs", path, i)
			}
		}
	}
}

// FuzzDecodeProject: no input panics the replay decoder, and a script it
// accepts is canonical — re-encoding the replayed project gives back the
// identical bytes.
func FuzzDecodeProject(f *testing.F) {
	// tinyConfig's projects, cut to a few months so each script is a few
	// KB: the fuzzer mutates and minimizes short inputs far faster.
	cfg := tinyConfig(11)
	for i := range cfg.Profiles {
		cfg.Profiles[i].DurationMonths = [2]int{3, 4}
	}
	for idx, prof := range cfg.Profiles {
		p, err := generateFresh(cfg, prof, idx)
		if err != nil {
			f.Fatal(err)
		}
		enc, err := encodeProject(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		for _, tampered := range tamperedScripts(p, enc) {
			f.Add(tampered)
		}
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		p, err := decodeProject(script)
		if err != nil {
			return
		}
		again, err := encodeProject(p)
		if err != nil {
			t.Fatalf("accepted script does not re-encode: %v", err)
		}
		if !bytes.Equal(again, script) {
			t.Fatalf("accepted script re-encodes to different bytes (%d vs %d)", len(again), len(script))
		}
	})
}

// tamperedScripts returns two non-canonical forms of p's script that
// replay the very same repository, so only the decoder's own checks can
// reject them: the first commit's first change with its status rewritten
// from A to M (no commit hash covers statuses), and the commit count as
// an overlong varint.
func tamperedScripts(p *Project, script []byte) [][]byte {
	var e cache.Enc
	e.String(p.Name)
	e.Int(int64(p.Taxon))
	e.String(p.DDLPath)
	count := len(e.Bytes())
	first := p.Repo.Log(vcs.LogOptions{Reverse: true})[0]
	e.Uvarint(uint64(p.Repo.CommitCount()))
	e.String(first.Commit.Message)
	e.String(first.Commit.Author.Name)
	e.String(first.Commit.Author.Email)
	e.Time(first.Commit.Author.When)
	e.Uvarint(uint64(len(first.Changes)))
	status := len(e.Bytes())
	if script[count] >= 0x80 || script[status] != byte(vcs.Added) {
		return nil
	}
	restatus := bytes.Clone(script)
	restatus[status] = byte(vcs.Modified)
	overlong := append(append(bytes.Clone(script[:count]), script[count]|0x80, 0), script[count+1:]...)
	return [][]byte{restatus, overlong}
}
