package engine

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coevo/internal/obs"
)

// Source is the pull side of Stream: an iterator handing out work items
// tagged with dense, increasing 0-based indices. Next is called
// concurrently by the pool's workers, so implementations must be safe
// for concurrent use; the intended shape is to claim the next index
// under the source's own lock and materialize the item outside it, which
// is what lets a streaming pipeline generate projects in parallel while
// only ever holding O(workers) of them.
//
// Next runs inside the claiming task's context, so a source may mark
// Stage(ctx, ...) and have its work show up in that task's stage
// timings and trace span.
type Source[T any] interface {
	// Next returns the next item and its index. ok=false reports clean
	// exhaustion (err must be nil); a non-nil error aborts the whole
	// stream regardless of policy — a broken input is not a per-task
	// failure.
	Next(ctx context.Context) (item T, index int, ok bool, err error)
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc[T any] func(ctx context.Context) (T, int, bool, error)

// Next implements Source.
func (f SourceFunc[T]) Next(ctx context.Context) (T, int, bool, error) { return f(ctx) }

// SliceSource adapts a slice to the Source interface, handing out items
// in index order — how an already-materialized input rides the stream.
func SliceSource[T any](items []T) Source[T] {
	var next atomic.Int64
	return SourceFunc[T](func(context.Context) (T, int, bool, error) {
		i := int(next.Add(1)) - 1
		if i >= len(items) {
			var zero T
			return zero, 0, false, nil
		}
		return items[i], i, true, nil
	})
}

// SourceError marks a stream aborted because its Source failed: the
// input itself broke, as opposed to one task failing on one item.
type SourceError struct{ Err error }

// Error implements error.
func (e *SourceError) Error() string { return fmt.Sprintf("source: %v", e.Err) }

// Unwrap exposes the cause.
func (e *SourceError) Unwrap() error { return e.Err }

// SinkError marks a stream aborted because the emit callback failed:
// downstream refused a result, so producing more is pointless.
type SinkError struct{ Err error }

// Error implements error.
func (e *SinkError) Error() string { return fmt.Sprintf("sink: %v", e.Err) }

// Unwrap exposes the cause.
func (e *SinkError) Unwrap() error { return e.Err }

// StreamOptions configures a streaming run.
type StreamOptions struct {
	Options
	// Window bounds the re-sequencer: at most Window items may be in
	// flight or completed-but-not-yet-emitted at once, so one slow task
	// at the emission head stalls dispatch instead of growing the
	// pending buffer without bound — this is the O(workers) memory
	// contract of the streaming study. Zero or negative derives
	// 2×workers.
	Window int
	// Total, when > 0, is the expected item count: it sizes the pool
	// (never more workers than items) and fills Event.Total for
	// progress reporting. A stream of unknown length reports Total 0.
	Total int
}

// seqSlot is one completed task parked in the re-sequencer until every
// lower index has been emitted.
type seqSlot[R any] struct {
	res    R
	failed bool
}

// Stream runs fn over every item pulled from src with a bounded worker
// pool and emits the results strictly in index order — deterministic
// regardless of worker count or completion order — without ever holding
// more than the reorder window of results. Failed (or panicked) tasks
// contribute a TaskError to the returned list (sorted by index) and
// their index is skipped by the emitter. Under CollectErrors a run with
// failures still returns a nil error; under FailFast the first failure
// cancels the run and is returned, wrapped.
//
// emit is called serialized, in ascending index order, and never after
// Stream returns; an error from emit aborts the stream and surfaces
// wrapped in a *SinkError. An error from src.Next aborts it with a
// *SourceError. Parent-context cancellation wins over both: in-flight
// tasks drain, already-completed results still emit in order, and the
// context error is returned.
func Stream[T, R any](ctx context.Context, src Source[T], fn func(ctx context.Context, index int, item T) (R, error), emit func(index int, res R) error, opts StreamOptions) ([]*TaskError, error) {
	name := opts.Name
	if name == nil {
		name = func(i int) string { return fmt.Sprintf("task-%d", i) }
	}
	scope := opts.Scope
	if scope == "" {
		scope = "run"
	}
	total := opts.Total
	clamp := total
	if clamp <= 0 {
		clamp = math.MaxInt
	}
	workers := opts.workerCount(clamp)
	window := opts.Window
	if window <= 0 {
		window = 2 * workers
	}

	log := opts.Obs.Logger()
	// The correlation identity and the black box are resolved once per
	// stream: per-task use is a nil/empty check, keeping the zero-alloc
	// budget of unobserved runs intact.
	traceID := obs.TraceIDFrom(ctx)
	flight := opts.Obs.Flight()
	var tasksTotal, tasksFailed *obs.Counter
	var taskSeconds *obs.Histogram
	if reg := opts.Obs.Metrics(); reg != nil {
		tasksTotal = reg.Counter(obs.Label("coevo_engine_tasks_total", "run", scope),
			"Engine tasks completed (finished or failed).")
		tasksFailed = reg.Counter(obs.Label("coevo_engine_task_failures_total", "run", scope),
			"Engine tasks that returned an error or panicked.")
		taskSeconds = reg.Histogram(obs.Label("coevo_engine_task_seconds", "run", scope),
			"Per-task wall time in seconds.", obs.DurationBuckets)
		reg.Gauge(obs.Label("coevo_engine_workers", "run", scope),
			"Bounded worker pool size.").Set(float64(workers))
	}
	log.Debug("engine: stream starting", "scope", scope, "total", total, "workers", workers,
		"window", window, "policy", opts.Policy.String())

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex // guards everything below, OnEvent and emit
		cond     = sync.NewCond(&mu)
		failures []*TaskError
		trigger  *TaskError // chronologically first failure
		done     int
		issued   int // items claimed from the source, not yet emitted or abandoned
		emitted  int // next index the re-sequencer will release
		pending  = map[int]seqSlot[R]{}
		// stop conditions; once any is set no worker claims new items
		exhausted bool
		srcErr    error
		emitErr   error
	)
	stopped := func() bool {
		return runCtx.Err() != nil || exhausted || srcErr != nil || emitErr != nil
	}
	emitEvent := func(e Event) {
		if opts.OnEvent != nil {
			e.Scope = scope
			opts.OnEvent(e)
		}
	}
	// cond.Wait cannot observe context cancellation, so a watcher turns
	// it into a broadcast. runCtx is always cancelled before Stream
	// returns (defer above), which also retires the watcher.
	go func() {
		<-runCtx.Done()
		mu.Lock()
		cond.Broadcast()
		mu.Unlock()
	}()

	var wg sync.WaitGroup
	for w := workers; w > 0; w-- {
		lane := w // 1-based trace lane owned by this worker
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The worker's private state context is built once: every task
			// this goroutine runs sees the same state value via State.
			workerCtx := runCtx
			if opts.WorkerState != nil {
				workerCtx = withState(runCtx, opts.WorkerState())
			}
			for {
				mu.Lock()
				for issued-emitted >= window && !stopped() {
					cond.Wait()
				}
				if stopped() {
					mu.Unlock()
					return
				}
				issued++
				mu.Unlock()

				// Pull outside the lock: sources materialize items here,
				// concurrently, inside the task's stage-recording context.
				rec := &stageRecorder{}
				tctx := withStages(workerCtx, rec)
				start := time.Now()
				item, i, ok, err := pullItem(tctx, src)
				if err != nil || !ok {
					mu.Lock()
					issued-- // the claimed slot was never filled
					if err != nil && srcErr == nil {
						srcErr = err
						cancel()
					}
					exhausted = true
					cond.Broadcast()
					mu.Unlock()
					return
				}

				mu.Lock()
				emitEvent(Event{Type: TaskStarted, Index: i, Name: name(i), Done: done, Total: total})
				mu.Unlock()

				res, err := runTask(tctx, i, item, fn)
				elapsed := time.Since(start)
				stages := rec.finish(elapsed)

				tasksTotal.Inc()
				taskSeconds.Observe(elapsed.Seconds())
				if opts.Obs.Tracing() {
					if traceID != "" {
						opts.Obs.RecordSpan(name(i), lane, start, elapsed, "scope", scope, "trace_id", traceID)
					} else {
						opts.Obs.RecordSpan(name(i), lane, start, elapsed, "scope", scope)
					}
					for _, st := range stages {
						opts.Obs.RecordSpan(st.Name, lane, st.Start, st.Elapsed, "task", name(i))
					}
				}
				if reg := opts.Obs.Metrics(); reg != nil {
					for _, st := range stages {
						reg.Counter(obs.Label("coevo_engine_stage_seconds_total", "run", scope, "stage", st.Name),
							"Wall time accumulated per named task stage.").Add(st.Elapsed.Seconds())
					}
				}
				if err != nil {
					tasksFailed.Inc()
					if flight != nil {
						flight.Record(obs.FlightEvent{Source: "engine", Kind: "task-failed",
							TraceID: traceID, Name: name(i), Detail: scope + ": " + err.Error()})
					}
					log.Warn("engine: task failed", "scope", scope, "task", name(i),
						"index", i, "elapsed", elapsed, "err", err, "trace_id", traceID)
				} else {
					if flight != nil {
						flight.Record(obs.FlightEvent{Source: "engine", Kind: "task-finished",
							TraceID: traceID, Name: name(i), Detail: scope + ": " + elapsed.String()})
					}
					log.Debug("engine: task done", "scope", scope, "task", name(i), "elapsed", elapsed)
				}

				mu.Lock()
				done++
				if err != nil {
					te := &TaskError{Index: i, Name: name(i), Err: err}
					failures = append(failures, te)
					if trigger == nil {
						trigger = te
					}
					if opts.Policy == FailFast {
						cancel()
					}
					emitEvent(Event{Type: TaskFailed, Index: i, Name: name(i), Err: err,
						Elapsed: elapsed, Stages: stages, Done: done, Total: total})
				} else {
					emitEvent(Event{Type: TaskFinished, Index: i, Name: name(i),
						Elapsed: elapsed, Stages: stages, Done: done, Total: total})
				}
				if _, dup := pending[i]; dup || i < emitted {
					// A source that repeats or rewinds indices would wedge the
					// re-sequencer; treat it as a broken input.
					if srcErr == nil {
						srcErr = fmt.Errorf("index %d emitted twice", i)
						cancel()
					}
				} else {
					pending[i] = seqSlot[R]{res: res, failed: err != nil}
				}
				// Re-sequencer: release the contiguous run of completed
				// results in index order. Failed indices advance the head
				// without emitting; completed results still emit after
				// cancellation (in-flight work drains into the sink), but
				// never past a sink error.
				for {
					slot, ready := pending[emitted]
					if !ready {
						break
					}
					delete(pending, emitted)
					if !slot.failed && emitErr == nil {
						if err := emit(emitted, slot.res); err != nil {
							emitErr = err
							cancel()
						}
					}
					emitted++
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	sort.Slice(failures, func(a, b int) bool { return failures[a].Index < failures[b].Index })
	log.Debug("engine: stream finished", "scope", scope, "done", done, "failed", len(failures))
	if err := ctx.Err(); err != nil {
		log.Warn("engine: stream cancelled", "scope", scope, "done", done, "total", total, "err", err)
		return failures, err
	}
	if srcErr != nil {
		return failures, fmt.Errorf("engine: %w", &SourceError{Err: srcErr})
	}
	if emitErr != nil {
		return failures, fmt.Errorf("engine: %w", &SinkError{Err: emitErr})
	}
	if opts.Policy == FailFast && trigger != nil {
		return failures, fmt.Errorf("engine: %w", trigger)
	}
	return failures, nil
}

// pullItem calls src.Next with panic isolation: a panicking source is a
// broken input, reported as a source error rather than a crashed run.
func pullItem[T any](ctx context.Context, src Source[T]) (item T, index int, ok bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return src.Next(ctx)
}
