// Package engine is the study's concurrent execution substrate: a bounded
// worker pool that runs independent per-project tasks, isolates faults
// (a panicking task becomes a recorded per-task failure, never a crashed
// run), honors context cancellation, and emits a serialized event stream
// (task started/finished/failed with wall time and per-stage timings)
// that progress reporters and metrics collectors consume.
//
// Results are always emitted in input-index order (Stream), so a run
// with N workers produces byte-identical downstream artifacts to a serial
// run — the determinism contract every figure and CSV of the study relies
// on.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"coevo/internal/obs"
)

// Policy selects how a run reacts to task failures.
type Policy int

const (
	// CollectErrors records every failure and keeps the pool draining the
	// remaining tasks — the default, and what a 195-project mining study
	// wants: one malformed history must not discard 194 results.
	CollectErrors Policy = iota
	// FailFast cancels the run at the first failure and reports it.
	FailFast
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case CollectErrors:
		return "collect-errors"
	case FailFast:
		return "fail-fast"
	default:
		return "unknown"
	}
}

// EventType discriminates the events of a run.
type EventType int

const (
	// TaskStarted fires when a worker picks the task up.
	TaskStarted EventType = iota
	// TaskFinished fires when the task returns without error.
	TaskFinished
	// TaskFailed fires when the task returns an error or panics.
	TaskFailed
)

// StageTiming is the measured duration of one named stage of a task (see
// Stage). Start is when the stage opened — trace exporters use it to place
// stage spans inside the task span.
type StageTiming struct {
	Name    string
	Start   time.Time
	Elapsed time.Duration
}

// Event is one entry of the run's event stream. Events are delivered
// serialized (never concurrently), with Done/Total consistent at the
// moment of emission.
type Event struct {
	Type  EventType
	Index int    // task index in the input slice
	Name  string // task name from Options.Name
	Scope string // run scope from Options.Scope ("generate", "analyze", ...)
	Err   error  // failure cause (TaskFailed only)
	// Elapsed is the task's wall time (TaskFinished/TaskFailed only).
	Elapsed time.Duration
	// Stages carries the per-stage timings the task recorded via Stage.
	Stages []StageTiming
	// Done counts finished+failed tasks including this event; Total is the
	// run's task count.
	Done, Total int
}

// TaskError records one failed task.
type TaskError struct {
	Index int
	Name  string
	Err   error
}

// Error implements error.
func (e *TaskError) Error() string { return fmt.Sprintf("task %d (%s): %v", e.Index, e.Name, e.Err) }

// Unwrap exposes the cause.
func (e *TaskError) Unwrap() error { return e.Err }

// PanicError wraps a panic recovered from a task, with the goroutine
// stack captured at the panic site.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Options configures a run.
type Options struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Policy is CollectErrors (default) or FailFast.
	Policy Policy
	// OnEvent, when non-nil, observes the run's event stream. Calls are
	// serialized by the engine; the callback needs no locking of its own
	// but must not block for long — it stalls the emitting worker.
	OnEvent func(Event)
	// Name labels task i in events and errors; defaults to "task-<i>".
	Name func(i int) string
	// WorkerState, when non-nil, is invoked once per worker goroutine at
	// pool start; the returned value rides every task context of that
	// worker and is retrieved with State. It hands each worker a private
	// arena of reusable scratch (parsers, diff maps, measure buffers)
	// that tasks may mutate freely without locking or pool traffic —
	// ownership rules are in DESIGN.md. The value is never shared across
	// workers and never reused after the run returns.
	WorkerState func() any
	// Obs, when non-nil, receives the run's observability: each completed
	// task becomes a span on its worker's trace lane with nested stage
	// spans, and the run feeds the unified metrics registry
	// (coevo_engine_tasks_total, _task_failures_total, _task_seconds,
	// _stage_seconds_total) plus structured logs. A nil Obs costs one nil
	// check per task.
	Obs *obs.Observer
	// Scope labels this run's metrics, spans and logs (e.g. "generate",
	// "analyze"); defaults to "run".
	Scope string
}

// workerCount resolves the effective pool size for n tasks.
func (o Options) workerCount(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runTask invokes fn with panic isolation: a panic is converted into a
// *PanicError so one poisoned input cannot crash the whole run.
func runTask[T, R any](ctx context.Context, i int, item T, fn func(context.Context, int, T) (R, error)) (res R, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i, item)
}

// stateKey carries the worker's private state through the context.
type stateKey struct{}

// withState injects a worker's state value into ctx.
func withState(ctx context.Context, state any) context.Context {
	return context.WithValue(ctx, stateKey{}, state)
}

// State returns the value Options.WorkerState produced for the worker
// running the current task, or nil outside an engine task (or when no
// WorkerState was configured). Task code treats a nil result as "allocate
// locally": the same function then works in serial callers too.
func State(ctx context.Context) any {
	return ctx.Value(stateKey{})
}

// stageKey carries the per-task stage recorder through the context.
type stageKey struct{}

// stageRecorder accumulates the named stage timings of one task.
type stageRecorder struct {
	mu      sync.Mutex
	name    string
	begin   time.Time
	timings []StageTiming
}

// withStages injects rec into ctx for Stage to find.
func withStages(ctx context.Context, rec *stageRecorder) context.Context {
	return context.WithValue(ctx, stageKey{}, rec)
}

// Stage marks the start of a named stage of the current task: the time
// since the previous Stage call (if any) is recorded under the previous
// name, and the new stage begins. Outside an engine task it is a no-op, so
// instrumented pipeline code also runs unmodified in serial callers.
func Stage(ctx context.Context, name string) {
	rec, ok := ctx.Value(stageKey{}).(*stageRecorder)
	if !ok {
		return
	}
	rec.mark(name, time.Now())
}

// mark closes the open stage at now and opens a new one.
func (r *stageRecorder) mark(name string, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.name != "" {
		r.timings = append(r.timings, StageTiming{Name: r.name, Start: r.begin, Elapsed: now.Sub(r.begin)})
	}
	r.name, r.begin = name, now
}

// finish closes the last open stage, charging it the task remainder.
func (r *stageRecorder) finish(total time.Duration) []StageTiming {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.name != "" {
		spent := time.Duration(0)
		for _, t := range r.timings {
			spent += t.Elapsed
		}
		r.timings = append(r.timings, StageTiming{Name: r.name, Start: r.begin, Elapsed: total - spent})
		r.name = ""
	}
	return r.timings
}
