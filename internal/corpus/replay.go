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
	"fmt"

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

// decodeProject replays an encoded project into a fresh repository. Any
// framing problem, commit error or head-hash mismatch returns an error —
// callers treat that as a miss and regenerate.
func decodeProject(p []byte) (*Project, error) {
	d := cache.NewDec(p)
	name := d.String()
	taxon := taxa.Taxon(d.Int())
	ddlPath := d.String()
	repo := vcs.NewRepository(name)
	nCommits := d.Uvarint()
	for i := uint64(0); i < nCommits && !d.Failed(); i++ {
		message := d.String()
		sig := vcs.Signature{Name: d.String(), Email: d.String(), When: d.Time()}
		nChanges := d.Uvarint()
		for j := uint64(0); j < nChanges && !d.Failed(); j++ {
			status := vcs.ChangeStatus(d.Uvarint())
			path := d.String()
			oldPath := d.String()
			switch status {
			case vcs.Deleted:
				repo.Remove(path)
			case vcs.Renamed:
				if err := repo.Move(oldPath, path); err != nil {
					return nil, fmt.Errorf("corpus: replay move: %w", err)
				}
				repo.Stage(path, d.Blob())
			default:
				repo.Stage(path, d.Blob())
			}
		}
		if d.Failed() {
			break
		}
		if _, err := repo.Commit(message, sig); err != nil {
			return nil, fmt.Errorf("corpus: replay commit %d: %w", i, err)
		}
	}
	wantHead := d.String()
	if err := d.Err(); err != nil {
		return nil, err
	}
	head := repo.Head()
	if head == nil || head.Hash.String() != wantHead {
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
