package jobs

// The queue's durability layer: one atomic JSON file per job (plus one
// per result), written through atomicfile.Write, so a crashed server
// never leaves a torn record and a restarted one reconstructs the whole
// queue from the directory.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"coevo/internal/atomicfile"
)

// Store persists jobs and results under one directory: <id>.json holds
// the job record, <id>.result.json the finished artifact. The directory
// is rsync-able and greppable like the run ledger.
type Store struct {
	dir string
}

// OpenStore creates (if needed) and opens a job directory.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobs: store directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

const (
	resultSuffix = ".result.json"
	flightSuffix = ".flight.json"
)

// Put writes the job record atomically.
func (s *Store) Put(j *Job) error {
	return s.writeJSON(j.ID+".json", j)
}

// PutResult writes a finished job's artifact atomically.
func (s *Store) PutResult(r *Result) error {
	return s.writeJSON(r.JobID+resultSuffix, r)
}

// PutFlight writes a failed job's flight-recorder dump atomically,
// next to its record and (absent) result.
func (s *Store) PutFlight(d *FlightDump) error {
	return s.writeJSON(d.JobID+flightSuffix, d)
}

// LoadFlight reads one job's flight dump.
func (s *Store) LoadFlight(id string) (*FlightDump, error) {
	var d FlightDump
	if err := s.readJSON(id+flightSuffix, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// Load reads one job by exact id.
func (s *Store) Load(id string) (*Job, error) {
	var j Job
	if err := s.readJSON(id+".json", &j); err != nil {
		return nil, err
	}
	if j.ID == "" {
		return nil, fmt.Errorf("jobs: %s: record without an id", id)
	}
	return &j, nil
}

// LoadResult reads one job's artifact.
func (s *Store) LoadResult(id string) (*Result, error) {
	var r Result
	if err := s.readJSON(id+resultSuffix, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// List reads every job record, sorted by submission time (ties by id).
// Unreadable or torn entries are skipped — one bad file must not hide
// the rest of the queue.
func (s *Store) List() ([]*Job, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	var all []*Job
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") ||
			strings.HasSuffix(name, resultSuffix) || strings.HasSuffix(name, flightSuffix) ||
			!strings.HasSuffix(name, ".json") {
			continue
		}
		j, err := s.Load(strings.TrimSuffix(name, ".json"))
		if err != nil {
			continue
		}
		all = append(all, j)
	}
	sort.Slice(all, func(a, b int) bool {
		if !all[a].Submitted.Equal(all[b].Submitted) {
			return all[a].Submitted.Before(all[b].Submitted)
		}
		return all[a].ID < all[b].ID
	})
	return all, nil
}

// writeJSON writes v to name atomically.
func (s *Store) writeJSON(name string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: marshal %s: %w", name, err)
	}
	if err := atomicfile.Write(filepath.Join(s.dir, name), append(raw, '\n')); err != nil {
		return fmt.Errorf("jobs: write %s: %w", name, err)
	}
	return nil
}

// readJSON reads name into v.
func (s *Store) readJSON(name string, v any) error {
	raw, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("jobs: %s: %w", name, err)
	}
	return nil
}
