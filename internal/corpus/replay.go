// Generation caching: a synthesized project is fully determined by the
// generator configuration (seed, epoch, spread, profile, project index),
// so its whole repository can be addressed by those bytes and replayed
// from the cache instead of re-running the RNG schedules, the schema
// builder and the source-churn synthesis. Replay goes through the same
// Stage/Commit substrate calls as generation, so commit hashes — and
// therefore everything downstream — are bit-for-bit identical; a stored
// head-hash check turns any infidelity into a cache miss.
package corpus

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"sync"

	"coevo/internal/cache"
	"coevo/internal/taxa"
	"coevo/internal/vcs"
)

// GenerateStage is the generation stage's cache version. Bump whenever
// the generator's output for a given configuration changes.
const GenerateStage = "corpus/generate/v1"

// projectKey addresses one project by everything generateProject reads:
// the corpus-wide knobs and the complete per-taxon profile.
func projectKey(cfg Config, prof Profile, idx int) cache.Key {
	h := cache.NewHasher(GenerateStage)
	h.Int(cfg.Seed)
	h.Time(cfg.Epoch)
	h.Int(int64(cfg.StartSpreadMonths))
	h.Int(int64(idx))
	h.Int(int64(prof.Taxon))
	h.Int(int64(prof.DurationMonths[0])).Int(int64(prof.DurationMonths[1]))
	h.Int(int64(prof.InitialTables[0])).Int(int64(prof.InitialTables[1]))
	h.Int(int64(prof.AttrsPerTable[0])).Int(int64(prof.AttrsPerTable[1]))
	h.Int(int64(prof.PostBirthUnits[0])).Int(int64(prof.PostBirthUnits[1]))
	for _, set := range [][]ShapeWeight{prof.SchemaShapes, prof.SourceShapes} {
		h.Int(int64(len(set)))
		for _, w := range set {
			h.Int(int64(w.Shape))
			h.Float(w.Weight)
		}
	}
	h.Float(prof.LateBirthProb)
	h.Float(prof.CoupleProb)
	h.Int(int64(prof.CommitsPerActiveMonth[0])).Int(int64(prof.CommitsPerActiveMonth[1]))
	h.Int(int64(prof.FilesPerCommit[0])).Int(int64(prof.FilesPerCommit[1]))
	return h.Sum()
}

// encodeProject flattens a generated project into a replay script: every
// commit with its author, time, message and file operations, plus the
// expected head hash as an end-to-end fidelity check.
func encodeProject(p *Project) ([]byte, error) {
	e := cache.GetEnc()
	defer cache.PutEnc(e)
	e.String(p.Name)
	e.Int(int64(p.Taxon))
	e.String(p.DDLPath)
	entries := p.Repo.Log(vcs.LogOptions{Reverse: true})
	e.Uvarint(uint64(len(entries)))
	for _, entry := range entries {
		c := entry.Commit
		e.String(c.Message)
		e.String(c.Author.Name)
		e.String(c.Author.Email)
		e.Time(c.Author.When)
		e.Uvarint(uint64(len(entry.Changes)))
		for _, ch := range entry.Changes {
			e.Uvarint(uint64(ch.Status))
			e.String(ch.Path)
			e.String(ch.OldPath)
			if ch.Status == vcs.Deleted {
				continue
			}
			content, ok := p.Repo.ChangedContent(ch)
			if !ok {
				return nil, fmt.Errorf("corpus: no content for %s at %s", ch.Path, c.Hash.Short())
			}
			e.Blob(content)
		}
	}
	head := p.Repo.Head()
	if head == nil {
		return nil, fmt.Errorf("corpus: empty generated repository")
	}
	e.String(head.Hash.String())
	return e.Copy(), nil
}

// replayScratch is the working set of one decode, pooled across decodes:
// the interned strings and the change list the script gives for the
// commit being replayed.
type replayScratch struct {
	strs    map[string]string
	changes []vcs.FileChange
}

var replayPool = sync.Pool{New: func() any { return &replayScratch{strs: make(map[string]string)} }}

// intern returns the one string the scratch holds for b, adding a copy of
// b on first sight. A project repeats a few hundred distinct paths and
// signature fields across all its commits, so each is allocated once per
// project instead of once per use. The lookup converts b without
// allocating, so b may be a view of the cached value.
func (s *replayScratch) intern(b []byte) string {
	if str, ok := s.strs[string(b)]; ok {
		return str
	}
	str := string(b)
	s.strs[str] = str
	return str
}

// release empties the scratch, keeping its capacity but none of a
// project's strings, and returns it to the pool.
func (s *replayScratch) release() {
	clear(s.strs)
	clear(s.changes[:cap(s.changes)])
	s.changes = s.changes[:0]
	replayPool.Put(s)
}

// sameChanges reports whether a replayed commit recorded exactly the
// name-status list its script gave, in the same order.
func sameChanges(got, want []vcs.FileChange) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].Status != want[i].Status || got[i].Path != want[i].Path || got[i].OldPath != want[i].OldPath {
			return false
		}
	}
	return true
}

// decodeProject replays an encoded project into a fresh repository. Any
// framing problem, commit error, change list the replay did not record
// as scripted, or head-hash mismatch returns an error — callers treat
// that as a miss and regenerate. The head hash covers every commit's
// author, message and tree, and the change-list check covers what it
// does not (statuses, rename sources, no-op entries), so a script is
// accepted only if encodeProject would write it byte for byte. The value
// is read through views (Dec.Blob) only while decoding: Stage copies
// every blob, and every string the repository keeps is its own copy, so
// the replayed repository shares no byte with p.
func decodeProject(p []byte) (*Project, error) {
	scratch := replayPool.Get().(*replayScratch)
	defer scratch.release()
	d := cache.NewDec(p)
	name := d.String()
	taxon := taxa.Taxon(d.Int())
	ddlPath := d.String()
	repo := vcs.NewRepository(name)
	nCommits := d.Uvarint()
	for i := uint64(0); i < nCommits && !d.Failed(); i++ {
		message := d.String()
		// The string fields are read as blobs: the framing is the same.
		sig := vcs.Signature{Name: scratch.intern(d.Blob()), Email: scratch.intern(d.Blob()), When: d.Time()}
		nChanges := d.Uvarint()
		want := scratch.changes[:0]
		for j := uint64(0); j < nChanges && !d.Failed(); j++ {
			status := d.Uvarint()
			ch := vcs.FileChange{Status: vcs.ChangeStatus(status), Path: scratch.intern(d.Blob()), OldPath: scratch.intern(d.Blob())}
			if uint64(ch.Status) != status {
				return nil, fmt.Errorf("corpus: replay commit %d: bad change status %d", i, status)
			}
			if ch.Status == vcs.Deleted {
				repo.Remove(ch.Path)
			} else {
				repo.Stage(ch.Path, d.Blob())
			}
			want = append(want, ch)
		}
		scratch.changes = want
		if d.Failed() {
			break
		}
		c, err := repo.Commit(message, sig)
		if err != nil {
			return nil, fmt.Errorf("corpus: replay commit %d: %w", i, err)
		}
		if got, _ := repo.Changes(c.Hash); !sameChanges(got, want) {
			return nil, fmt.Errorf("corpus: replay commit %d: recorded changes differ from the script", i)
		}
	}
	wantHead := d.Blob() // hex, compared in place
	if err := d.Err(); err != nil {
		return nil, err
	}
	var gotHead [2 * len(vcs.Hash{})]byte
	head := repo.Head()
	if head == nil || !bytes.Equal(hex.AppendEncode(gotHead[:0], head.Hash[:]), wantHead) {
		return nil, fmt.Errorf("corpus: replayed head hash mismatch")
	}
	return &Project{Name: name, Taxon: taxon, Repo: repo, DDLPath: ddlPath}, nil
}

// generateProjectCached memoizes generateProject through c; a nil cache
// or any replay failure degrades to plain generation.
func generateProjectCached(cfg Config, prof Profile, idx int) (*Project, error) {
	c := cfg.Cache
	if c == nil {
		return generateFresh(cfg, prof, idx)
	}
	key := projectKey(cfg, prof, idx)
	if v, ok := c.Get(key); ok {
		if p, err := decodeProject(v); err == nil {
			return p, nil
		}
	}
	p, err := generateFresh(cfg, prof, idx)
	if err != nil {
		return nil, err
	}
	if enc, err := encodeProject(p); err == nil {
		c.Put(key, enc)
	}
	return p, nil
}
