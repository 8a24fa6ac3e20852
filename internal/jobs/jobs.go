// Package jobs is the analysis service behind `coevo serve`: a durable,
// crash-recoverable, multi-tenant job queue that accepts study
// submissions over HTTP, executes them through the streaming pipeline,
// and seals every completed job into the persistent run ledger.
//
// A job is one submission — a synthetic corpus/study spec, or a real
// project payload in the ingest format (git-log text plus dated DDL
// versions) — that moves through the state machine
//
//	queued → running → done | failed | canceled
//
// Each transition is persisted as an atomic JSON file (written through
// atomicfile), so a server killed mid-run re-queues its interrupted
// jobs on restart and finishes them. The scheduler bounds total and
// per-tenant concurrency, enforces per-tenant queue quotas (429 over
// HTTP), supports per-job cancellation, and shares one content-addressed
// result cache across every job so identical submissions — from any
// tenant — cost one analysis.
package jobs

import (
	"crypto/rand"
	"fmt"
	"sort"
	"time"

	"coevo/internal/cache"
	"coevo/internal/history"
	"coevo/internal/sqlddl"
	"coevo/internal/study"
)

// specDialect resolves a spec's dialect string; Validate has already
// rejected unknown names, so a parse failure degrades to Generic. The
// normalized form keys the fingerprint, so "pg" and "postgres" dedup to
// the same work.
func specDialect(raw string) sqlddl.Dialect {
	d, err := sqlddl.ParseDialect(raw)
	if err != nil {
		return sqlddl.Generic
	}
	return d
}

// State is one stop of the job state machine.
type State string

// The job states. Queued and Running are live; Done, Failed and
// Canceled are terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// The submission kinds.
const (
	// KindStudy runs the synthetic-corpus study: generate the (optionally
	// rescaled) corpus for a seed and render every evaluation figure.
	KindStudy = "study"
	// KindIngest analyzes a real project from its git log and dated DDL
	// versions — the `coevo ingest` payload as a service submission.
	KindIngest = "ingest"
)

// Spec is the submitted work: exactly one of Study or Ingest, matching
// Kind. Specs are content-addressed (see Fingerprint), so two identical
// submissions share one cached result.
type Spec struct {
	// Kind is "study" or "ingest".
	Kind string `json:"kind"`
	// Name labels the job in listings (default: the kind).
	Name   string      `json:"name,omitempty"`
	Study  *StudySpec  `json:"study,omitempty"`
	Ingest *IngestSpec `json:"ingest,omitempty"`
}

// StudySpec parameterizes a synthetic-corpus study job.
type StudySpec struct {
	// Seed drives corpus generation; the same seed reproduces the corpus
	// and every figure bit-for-bit.
	Seed int64 `json:"seed"`
	// PerTaxon overrides the per-taxon project count (0 = the paper's
	// 195-project corpus).
	PerTaxon int `json:"per_taxon,omitempty"`
	// CSV adds the per-project dataset export to the result's sections.
	CSV bool `json:"csv,omitempty"`
	// Dialect selects the SQL dialect adapter used to parse every DDL
	// version ("" = generic; also mysql, postgres, sqlite, mssql, auto).
	Dialect string `json:"dialect,omitempty"`
}

// maxPerTaxon bounds a single submission's corpus scale; larger studies
// belong in sharded offline runs, not one service job.
const maxPerTaxon = 2000

// IngestSpec is a real-project payload: the text of
// `git log --name-status --no-merges --date=iso` plus the project's DDL
// versions keyed by date ("YYYY-MM-DD" or "YYYY-MM-DD.N" for several
// versions on one day) — the same shapes `coevo ingest` reads from disk.
type IngestSpec struct {
	GitLog      string            `json:"git_log"`
	DDLVersions map[string]string `json:"ddl_versions"`
	// Dialect selects the SQL dialect adapter for the submitted DDL
	// ("" = generic; "auto" detects it per version).
	Dialect string `json:"dialect,omitempty"`
}

// versionNames lists the DDL version names in map order.
func (s *IngestSpec) versionNames() []string {
	names := make([]string, 0, len(s.DDLVersions))
	for name := range s.DDLVersions {
		names = append(names, name)
	}
	return names
}

// Validate checks the spec is well-formed; the HTTP API maps a failure
// to 400.
func (s *Spec) Validate() error {
	switch s.Kind {
	case KindStudy:
		if s.Study == nil {
			return fmt.Errorf("jobs: %s spec missing the study payload", s.Kind)
		}
		if s.Ingest != nil {
			return fmt.Errorf("jobs: %s spec must not carry an ingest payload", s.Kind)
		}
		if s.Study.PerTaxon < 0 || s.Study.PerTaxon > maxPerTaxon {
			return fmt.Errorf("jobs: per_taxon %d out of range [0, %d]", s.Study.PerTaxon, maxPerTaxon)
		}
		if _, err := sqlddl.ParseDialect(s.Study.Dialect); err != nil {
			return fmt.Errorf("jobs: study spec: %w", err)
		}
	case KindIngest:
		if s.Ingest == nil {
			return fmt.Errorf("jobs: %s spec missing the ingest payload", s.Kind)
		}
		if s.Study != nil {
			return fmt.Errorf("jobs: %s spec must not carry a study payload", s.Kind)
		}
		if s.Ingest.GitLog == "" {
			return fmt.Errorf("jobs: ingest spec needs a non-empty git_log")
		}
		if len(s.Ingest.DDLVersions) == 0 {
			return fmt.Errorf("jobs: ingest spec needs at least one dated DDL version")
		}
		if _, err := history.ParseVersionNames(s.Ingest.versionNames()); err != nil {
			return fmt.Errorf("jobs: ingest spec: %w", err)
		}
		if _, err := sqlddl.ParseDialect(s.Ingest.Dialect); err != nil {
			return fmt.Errorf("jobs: ingest spec: %w", err)
		}
	case "":
		return fmt.Errorf("jobs: spec missing kind (want %q or %q)", KindStudy, KindIngest)
	default:
		return fmt.Errorf("jobs: unknown kind %q (want %q or %q)", s.Kind, KindStudy, KindIngest)
	}
	return nil
}

// Label returns the display name of the spec.
func (s *Spec) Label() string {
	if s.Name != "" {
		return s.Name
	}
	return s.Kind
}

// fingerprintStage versions the whole-result memoization; bump it when
// the result schema or any rendered section changes observable output.
// v2: results carry parse health (new section and result field) and the
// fingerprint folds the normalized parse dialect.
const fingerprintStage = "jobs/result/v2"

// Fingerprint content-addresses the spec: the key under which the whole
// rendered result is memoized in the shared cache, and the dedup
// identity that makes a million identical submissions cost one analysis.
// The submitting tenant is deliberately not part of the key.
func (s *Spec) Fingerprint() cache.Key {
	h := cache.NewHasher(fingerprintStage)
	h.String(s.Kind)
	switch s.Kind {
	case KindStudy:
		h.Int(s.Study.Seed).Int(int64(s.Study.PerTaxon)).Bool(s.Study.CSV)
		h.String(specDialect(s.Study.Dialect).String())
	case KindIngest:
		h.String(specDialect(s.Ingest.Dialect).String())
		h.String(s.Ingest.GitLog)
		names := s.Ingest.versionNames()
		sort.Strings(names)
		h.Int(int64(len(names)))
		for _, name := range names {
			h.String(name).String(s.Ingest.DDLVersions[name])
		}
	}
	return h.Sum()
}

// Job is one submission moving through the queue. The struct is the
// persisted on-disk record and the HTTP API's status document.
type Job struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  State  `json:"state"`
	Spec   Spec   `json:"spec"`
	// Fingerprint is the spec's content address (hex) — equal
	// fingerprints mean equal work, whatever the tenant.
	Fingerprint string `json:"fingerprint"`
	// TraceID is the W3C trace id correlating this job with the HTTP
	// request that submitted it, its SSE events, the access log, the
	// sealed run manifest and every exported span.
	TraceID string `json:"trace_id,omitempty"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`

	// Error is the failure cause (failed/canceled jobs).
	Error string `json:"error,omitempty"`
	// RunID links to the sealed run-ledger manifest: fetch it at
	// /runs/<run_id>, diff it with `coevo runs diff`.
	RunID string `json:"run_id,omitempty"`
	// Attempts counts executions; >1 means the job was re-queued after a
	// crash or shutdown interrupted it.
	Attempts int `json:"attempts,omitempty"`

	// Done/Total report live analysis progress (projects completed).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Projects/FailedProjects summarize the finished analysis.
	Projects       int `json:"projects,omitempty"`
	FailedProjects int `json:"failed_projects,omitempty"`
	// CacheHit marks a job whose whole result was served from the shared
	// content-addressed cache — a deduplicated duplicate submission.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// clone returns a copy safe to hand outside the queue's lock.
func (j *Job) clone() *Job {
	c := *j
	return &c
}

// Result is a finished job's fetchable artifact: the rendered output
// sections, byte-identical to what the equivalent CLI run would write.
type Result struct {
	JobID string `json:"job_id"`
	Kind  string `json:"kind"`
	// Sections maps artifact name (figure4.txt, section7.txt,
	// casestudy.txt, dataset.csv, ...) to its rendered content.
	Sections map[string]string `json:"sections"`
	// Projects/FailedProjects mirror the analysis coverage, so a
	// cache-served duplicate still reports what the work covered.
	Projects       int `json:"projects"`
	FailedProjects int `json:"failed_projects,omitempty"`
	// ParseHealth aggregates what the recovering parser did across the
	// job's DDL input — the structured counterpart of the rendered
	// parsehealth.txt section.
	ParseHealth *study.ParseHealthSummary `json:"parse_health,omitempty"`
}

// NewID builds a job id: a sortable UTC timestamp plus four random bytes
// so concurrent submissions never collide.
func NewID(now time.Time) string {
	var suffix [4]byte
	if _, err := rand.Read(suffix[:]); err != nil {
		return fmt.Sprintf("j-%s-%09d", now.UTC().Format("20060102T150405"), now.Nanosecond())
	}
	return fmt.Sprintf("j-%s-%x", now.UTC().Format("20060102T150405"), suffix)
}
