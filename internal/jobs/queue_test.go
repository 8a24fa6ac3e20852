package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// studySpec returns a minimal valid study spec.
func studySpec(seed int64) Spec {
	return Spec{Kind: KindStudy, Study: &StudySpec{Seed: seed, PerTaxon: 1}}
}

// okExec returns instantly with a canned result.
func okExec(t *testing.T) ExecFunc {
	t.Helper()
	return func(_ context.Context, j *Job, _ RunReport) (*Result, error) {
		return &Result{
			JobID: j.ID, Kind: j.Spec.Kind,
			Sections: map[string]string{"figure4.txt": "histogram\n"},
			Projects: 6,
		}, nil
	}
}

// blockingExec parks every job until release is closed (or its context
// fires), signalling each start on started.
func blockingExec(started chan<- string, release <-chan struct{}) ExecFunc {
	return func(ctx context.Context, j *Job, _ RunReport) (*Result, error) {
		select {
		case started <- j.ID:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		select {
		case <-release:
			return &Result{JobID: j.ID, Kind: j.Spec.Kind, Sections: map[string]string{}, Projects: 1}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func openQueue(t *testing.T, opts QueueOptions) *Queue {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	q, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		q.Close(ctx) //nolint:errcheck // best-effort test cleanup
	})
	return q
}

func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestQueueLifecycle walks one job through submit → running → done and
// checks the durable record and result.
func TestQueueLifecycle(t *testing.T) {
	q := openQueue(t, QueueOptions{Exec: okExec(t)})
	j, err := q.Submit(context.Background(), "alice", studySpec(7))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.State != StateQueued && j.State != StateRunning {
		t.Errorf("initial state = %s", j.State)
	}
	if j.Fingerprint == "" {
		t.Error("job has no fingerprint")
	}
	done, err := q.Wait(waitCtx(t), j.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if done.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", done.State, done.Error)
	}
	if done.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", done.Attempts)
	}
	if done.Projects != 6 {
		t.Errorf("projects = %d, want 6", done.Projects)
	}

	res, err := q.Result(j.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if res.Sections["figure4.txt"] != "histogram\n" {
		t.Errorf("sections = %v", res.Sections)
	}

	// The durable record must agree with the in-memory view.
	onDisk, err := q.store.Load(j.ID)
	if err != nil {
		t.Fatalf("store.Load: %v", err)
	}
	if onDisk.State != StateDone {
		t.Errorf("on-disk state = %s, want done", onDisk.State)
	}
	s := q.Stats()
	if s.Submitted != 1 || s.Completed != 1 || s.Failed != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// TestSubmitInvalid maps a malformed spec to ErrInvalid without touching
// the store.
func TestSubmitInvalid(t *testing.T) {
	q := openQueue(t, QueueOptions{Exec: okExec(t)})
	cases := []Spec{
		{},
		{Kind: "mystery"},
		{Kind: KindStudy},
		{Kind: KindStudy, Study: &StudySpec{PerTaxon: maxPerTaxon + 1}},
		{Kind: KindStudy, Study: &StudySpec{}, Ingest: &IngestSpec{GitLog: "x"}},
		{Kind: KindIngest, Ingest: &IngestSpec{}},
		{Kind: KindIngest, Ingest: &IngestSpec{GitLog: "x"}},
		{Kind: KindIngest, Ingest: &IngestSpec{GitLog: "x", DDLVersions: map[string]string{"not-a-date": ""}}},
		{Kind: KindIngest, Ingest: &IngestSpec{GitLog: "x", DDLVersions: map[string]string{"2020-01-01.x": ""}}},
	}
	for i, spec := range cases {
		if _, err := q.Submit(context.Background(), "t", spec); !errors.Is(err, ErrInvalid) {
			t.Errorf("case %d: err = %v, want ErrInvalid", i, err)
		}
	}
	if got := len(q.List("")); got != 0 {
		t.Errorf("invalid submissions persisted: %d jobs listed", got)
	}
}

// TestTenantQuota rejects a tenant over its live-job quota with ErrQuota
// while other tenants still submit.
func TestTenantQuota(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	q := openQueue(t, QueueOptions{
		Exec: blockingExec(started, release), Workers: 1, TenantMaxQueued: 2,
	})
	for i := 0; i < 2; i++ {
		if _, err := q.Submit(context.Background(), "alice", studySpec(int64(i))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := q.Submit(context.Background(), "alice", studySpec(99)); !errors.Is(err, ErrQuota) {
		t.Fatalf("3rd submit err = %v, want ErrQuota", err)
	}
	if _, err := q.Submit(context.Background(), "bob", studySpec(99)); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	if s := q.Stats(); s.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", s.Rejected)
	}
}

// TestTenantRunningLimit keeps one tenant's jobs serialized while the
// global pool still interleaves other tenants.
func TestTenantRunningLimit(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	q := openQueue(t, QueueOptions{
		Exec: blockingExec(started, release), Workers: 2, TenantMaxRunning: 1,
	})
	a1, _ := q.Submit(context.Background(), "alice", studySpec(1))
	if _, err := q.Submit(context.Background(), "alice", studySpec(2)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	first := <-started
	if first != a1.ID {
		t.Fatalf("first started = %s, want %s", first, a1.ID)
	}
	// alice's second job must hold back even with a free worker...
	select {
	case id := <-started:
		t.Fatalf("second alice job %s started alongside the first", id)
	case <-time.After(100 * time.Millisecond):
	}
	// ...while bob's job takes the free slot immediately.
	b, _ := q.Submit(context.Background(), "bob", studySpec(3))
	select {
	case id := <-started:
		if id != b.ID {
			t.Fatalf("started %s, want bob's %s", id, b.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bob's job never started")
	}
}

// TestCancelQueued cancels a job before it runs.
func TestCancelQueued(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	q := openQueue(t, QueueOptions{Exec: blockingExec(started, release), Workers: 1})
	q.Submit(context.Background(), "t", studySpec(1)) //nolint:errcheck // occupies the only worker
	<-started
	second, _ := q.Submit(context.Background(), "t", studySpec(2))
	j, err := q.Cancel(second.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if j.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", j.State)
	}
	if s := q.Stats(); s.Canceled != 1 || s.Queued != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// TestCancelRunning cancels mid-run: the executor's context fires and
// the job settles as canceled.
func TestCancelRunning(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	q := openQueue(t, QueueOptions{Exec: blockingExec(started, release)})
	j, _ := q.Submit(context.Background(), "t", studySpec(1))
	<-started
	if _, err := q.Cancel(j.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	done, err := q.Wait(waitCtx(t), j.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if done.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", done.State)
	}
}

// TestExecFailure records the executor's error and the failed state.
func TestExecFailure(t *testing.T) {
	q := openQueue(t, QueueOptions{
		Exec: func(context.Context, *Job, RunReport) (*Result, error) {
			return nil, fmt.Errorf("corpus exploded")
		},
	})
	j, _ := q.Submit(context.Background(), "t", studySpec(1))
	done, err := q.Wait(waitCtx(t), j.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if done.State != StateFailed || done.Error != "corpus exploded" {
		t.Fatalf("state = %s, error = %q", done.State, done.Error)
	}
	if _, err := q.Result(j.ID); !errors.Is(err, ErrNotDone) {
		t.Errorf("Result err = %v, want ErrNotDone", err)
	}
}

// TestCrashRecovery is the durability acceptance: a job interrupted by
// shutdown keeps its on-disk running state, and the next Open re-queues
// and finishes it.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	started := make(chan string, 1)
	release := make(chan struct{})
	q1, err := Open(QueueOptions{Dir: dir, Exec: blockingExec(started, release)})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	j, err := q1.Submit(context.Background(), "alice", studySpec(42))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started // the job is mid-run

	// "Crash": shut the queue down while the job runs. Close cancels the
	// executor but deliberately leaves the on-disk record running.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q1.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	store, _ := OpenStore(dir)
	onDisk, err := store.Load(j.ID)
	if err != nil {
		t.Fatalf("Load after close: %v", err)
	}
	if onDisk.State != StateRunning {
		t.Fatalf("on-disk state after shutdown = %s, want running (the re-queue marker)", onDisk.State)
	}

	// Restart: the interrupted job re-queues and completes.
	q2 := openQueue(t, QueueOptions{Dir: dir, Exec: okExec(t)})
	if s := q2.Stats(); s.Requeued != 1 {
		t.Fatalf("requeued = %d, want 1", s.Requeued)
	}
	done, err := q2.Wait(waitCtx(t), j.ID)
	if err != nil {
		t.Fatalf("Wait after restart: %v", err)
	}
	if done.State != StateDone {
		t.Fatalf("state after restart = %s (err %q), want done", done.State, done.Error)
	}
	if done.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (one per process)", done.Attempts)
	}
	if _, err := q2.Result(j.ID); err != nil {
		t.Errorf("Result after recovery: %v", err)
	}
}

// TestWatch sees the state transitions and progress ticks, and the
// channel closes at the terminal state.
func TestWatch(t *testing.T) {
	var progressed atomic.Bool
	q := openQueue(t, QueueOptions{
		Workers: 1,
		Exec: func(_ context.Context, j *Job, rep RunReport) (*Result, error) {
			rep.Progress(3, 6)
			progressed.Store(true)
			return &Result{JobID: j.ID, Kind: j.Spec.Kind, Sections: map[string]string{}, Projects: 6}, nil
		},
	})
	// Submit while holding the scheduler back is racy from outside; watch
	// immediately after submitting and tolerate missing the "running"
	// event, but the terminal close must always arrive.
	j, _ := q.Submit(context.Background(), "t", studySpec(1))
	ch, stop, err := q.Watch(j.ID)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer stop()
	var last Event
	for e := range ch {
		last = e
	}
	if last.Type != "state" || !last.State.Terminal() {
		t.Fatalf("last event = %+v, want terminal state event", last)
	}
	if !progressed.Load() {
		t.Error("executor progress callback never ran")
	}
	// A watch on an already-terminal job yields its final state at once.
	ch2, stop2, err := q.Watch(j.ID)
	if err != nil {
		t.Fatalf("Watch terminal: %v", err)
	}
	defer stop2()
	e, open := <-ch2
	if !open || e.State != StateDone {
		t.Fatalf("terminal watch event = %+v (open %v)", e, open)
	}
	if _, open := <-ch2; open {
		t.Error("terminal watch channel not closed")
	}
}

// TestFingerprint ties dedup identity to content, not tenant or name.
func TestFingerprint(t *testing.T) {
	a := studySpec(7)
	b := studySpec(7)
	b.Name = "same work, different label"
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("label changed the fingerprint")
	}
	c := studySpec(8)
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different seeds share a fingerprint")
	}
	ing := Spec{Kind: KindIngest, Ingest: &IngestSpec{
		GitLog:      "log",
		DDLVersions: map[string]string{"2020-01-01": "CREATE TABLE a (x INT);"},
	}}
	ing2 := Spec{Kind: KindIngest, Ingest: &IngestSpec{
		GitLog:      "log",
		DDLVersions: map[string]string{"2020-01-01": "CREATE TABLE a (y INT);"},
	}}
	if ing.Fingerprint() == ing2.Fingerprint() {
		t.Error("different DDL contents share a fingerprint")
	}
}

// TestSubmitAfterClose rejects with ErrClosed.
func TestSubmitAfterClose(t *testing.T) {
	q := openQueue(t, QueueOptions{Exec: okExec(t)})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := q.Submit(context.Background(), "t", studySpec(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestCacheKeysFrozen pins the hex of a study and an ingest fingerprint.
// Results memoized by any earlier build are addressed by these bytes, so
// a change to the field sequence or framing must come with a
// fingerprintStage bump.
func TestCacheKeysFrozen(t *testing.T) {
	study := Spec{Kind: KindStudy, Study: &StudySpec{Seed: 2023, PerTaxon: 2, CSV: true}}
	ingest := Spec{Kind: KindIngest, Ingest: &IngestSpec{
		GitLog: "commit 1\nAuthor: dev <dev@example.com>\n",
		DDLVersions: map[string]string{
			"2020-01-01":   "CREATE TABLE a (x INT);",
			"2020-02-01.1": "CREATE TABLE a (x INT, y TEXT);",
		},
	}}
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{study, "589d6de04fa3a5220cc1a0fa9c75e19ec66d04004325a84fcd93847671c64b73"},
		{ingest, "dfd1582e38d3f8c611ca67978a96b124f56240d7970e0b1f6d175fbcc382f9fe"},
	} {
		if got := c.spec.Fingerprint().String(); got != c.want {
			t.Errorf("%s fingerprint = %s, want %s", c.spec.Kind, got, c.want)
		}
	}
}

// frozenStudyResultDigest is the sha256 of the jobs/result/v2 value a
// per_taxon=2 seed-2023 study job stores, with JobID blanked (a cache hit
// overwrites it). At per_taxon=1 the job fails: §7 needs more projects. TestCacheKeysFrozen pins where a result lives; this
// pins what it holds, so a rendered section or result field that changes
// while fingerprintStage stays the same fails here instead of serving
// stale results.
const frozenStudyResultDigest = "9e37ee2d02ee99075636d5431152f683f90d1e5bee49d89f35589328e93423af"

func TestCacheValuesFrozen(t *testing.T) {
	j := &Job{ID: "frozen", Spec: Spec{Kind: KindStudy, Study: &StudySpec{Seed: 2023, PerTaxon: 2}}}
	res, err := (&Executor{}).Run(context.Background(), j, RunReport{})
	if err != nil {
		t.Fatal(err)
	}
	res.JobID = ""
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != frozenStudyResultDigest {
		t.Errorf("study result hashes %s, want %s: its output changed, so bump fingerprintStage", got, frozenStudyResultDigest)
	}
}
