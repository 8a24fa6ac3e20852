package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingSource hands out n items (value == index) and records how many
// were claimed, emulating a lazy corpus source.
type countingSource struct {
	mu      sync.Mutex
	n       int
	next    int
	claimed int
}

func (s *countingSource) Next(ctx context.Context) (int, int, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= s.n {
		return 0, 0, false, nil
	}
	i := s.next
	s.next++
	s.claimed++
	return i, i, true, nil
}

// TestStreamDeterministicEmissionOrder drives the re-sequencer with
// random per-task delays: whatever order tasks complete in, results must
// emit strictly in index order, each exactly once.
func TestStreamDeterministicEmissionOrder(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(42))
	delays := make([]time.Duration, n)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
	}
	for _, workers := range []int{1, 4, 16} {
		src := &countingSource{n: n}
		var got []int
		failures, err := Stream(context.Background(), src,
			func(_ context.Context, i, item int) (int, error) {
				time.Sleep(delays[i])
				return item * 3, nil
			},
			func(i, res int) error {
				got = append(got, res)
				return nil
			}, StreamOptions{Options: Options{Workers: workers}, Total: n})
		if err != nil || len(failures) != 0 {
			t.Fatalf("workers=%d: err=%v failures=%d", workers, err, len(failures))
		}
		if len(got) != n {
			t.Fatalf("workers=%d: emitted %d results, want %d", workers, len(got), n)
		}
		for i, res := range got {
			if res != i*3 {
				t.Fatalf("workers=%d: emission %d = %d, want %d (out of order?)", workers, i, res, i*3)
			}
		}
	}
}

// TestStreamWindowBoundsInFlight blocks the head-of-line task and checks
// dispatch stalls at the reorder window instead of racing ahead: the
// memory bound the streaming study depends on.
func TestStreamWindowBoundsInFlight(t *testing.T) {
	const n, window = 64, 4
	release := make(chan struct{})
	go func() {
		// Give the pool a moment to (wrongly) run past the window, then
		// open the head. A correct window never lets index >= window
		// start in that interval, however long it is.
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	src := &countingSource{n: n}
	var got int
	_, err := Stream(context.Background(), src,
		func(_ context.Context, i, item int) (int, error) {
			if i == 0 {
				<-release
				return item, nil
			}
			select {
			case <-release:
				// Head released: the window may slide freely now.
			default:
				if i >= window {
					t.Errorf("task %d started while the head blocked a %d-slot window", i, window)
				}
			}
			return item, nil
		},
		func(int, int) error { got++; return nil },
		StreamOptions{Options: Options{Workers: 8}, Window: window, Total: n})
	if err != nil || got != n {
		t.Fatalf("emitted %d, err %v", got, err)
	}
}

// TestStreamCancellationPartialResults cancels mid-stream: the emitted
// prefix must be in order and complete up to the cancellation point, and
// the context error surfaces.
func TestStreamCancellationPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 100
	src := &countingSource{n: n}
	var got []int
	_, err := Stream(ctx, src,
		func(_ context.Context, i, item int) (int, error) {
			return item, nil
		},
		func(i, res int) error {
			got = append(got, res)
			if len(got) == 10 {
				cancel()
			}
			return nil
		}, StreamOptions{Options: Options{Workers: 4}, Total: n})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(got) < 10 || len(got) == n {
		t.Fatalf("partial results: emitted %d of %d", len(got), n)
	}
	for i, res := range got {
		if res != i {
			t.Fatalf("partial prefix broken at %d: got %d", i, res)
		}
	}
	if src.claimed == n {
		t.Error("cancellation did not stop the source from being drained")
	}
}

// TestStreamPanicDoesNotStallResequencer panics one task in the middle:
// its index must be skipped and every later result still emitted — a
// poisoned project cannot wedge the emission head.
func TestStreamPanicDoesNotStallResequencer(t *testing.T) {
	const n = 50
	src := &countingSource{n: n}
	var got []int
	failures, err := Stream(context.Background(), src,
		func(_ context.Context, i, item int) (int, error) {
			if i == 17 {
				panic("poisoned project")
			}
			return item, nil
		},
		func(i, res int) error {
			got = append(got, res)
			return nil
		}, StreamOptions{Options: Options{Workers: 4}, Total: n})
	if err != nil {
		t.Fatalf("panic must stay a per-task failure: %v", err)
	}
	if len(failures) != 1 || failures[0].Index != 17 {
		t.Fatalf("failures = %+v", failures)
	}
	var pe *PanicError
	if !errors.As(failures[0].Err, &pe) {
		t.Fatalf("want PanicError, got %v", failures[0].Err)
	}
	if len(got) != n-1 {
		t.Fatalf("emitted %d results, want %d (stalled after the panic?)", len(got), n-1)
	}
	want := 0
	for _, res := range got {
		if want == 17 {
			want++
		}
		if res != want {
			t.Fatalf("emission order broken: got %d, want %d", res, want)
		}
		want++
	}
}

// mapSlice is the slice-in, slice-out use of the engine: fn runs over
// items through Stream and a SliceSource, and each result lands at its
// index, so a failed or panicked task leaves the zero value. The TestMap*
// tests pin the task-failure contract through it.
func mapSlice[T, R any](ctx context.Context, items []T, fn func(context.Context, int, T) (R, error), opts Options) ([]R, []*TaskError, error) {
	results := make([]R, len(items))
	failures, err := Stream(ctx, SliceSource(items), fn,
		func(i int, res R) error { results[i] = res; return nil },
		StreamOptions{Options: opts, Total: len(items)})
	return results, failures, err
}

func TestMapCollectsErrors(t *testing.T) {
	boom := errors.New("boom")
	items := []int{0, 1, 2, 3, 4, 5}
	results, failures, err := mapSlice(context.Background(), items,
		func(_ context.Context, i, item int) (int, error) {
			if i == 2 || i == 4 {
				return 0, boom
			}
			return item + 10, nil
		}, Options{Workers: 3, Name: func(i int) string { return fmt.Sprintf("proj-%d", i) }})
	if err != nil {
		t.Fatalf("CollectErrors must not surface task errors as run error: %v", err)
	}
	if len(failures) != 2 || failures[0].Index != 2 || failures[1].Index != 4 {
		t.Fatalf("failures = %+v", failures)
	}
	if !errors.Is(failures[0], boom) {
		t.Errorf("failure cause not unwrappable: %v", failures[0])
	}
	if failures[0].Name != "proj-2" {
		t.Errorf("failure name = %q", failures[0].Name)
	}
	if results[2] != 0 || results[3] != 13 {
		t.Errorf("results = %v", results)
	}
}

func TestMapPanicIsolation(t *testing.T) {
	items := []int{0, 1, 2, 3}
	results, failures, err := mapSlice(context.Background(), items,
		func(_ context.Context, i, item int) (int, error) {
			if i == 1 {
				panic("poisoned history")
			}
			return item, nil
		}, Options{Workers: 2})
	if err != nil {
		t.Fatalf("panic must not abort the run: %v", err)
	}
	if len(failures) != 1 || failures[0].Index != 1 {
		t.Fatalf("failures = %+v", failures)
	}
	var pe *PanicError
	if !errors.As(failures[0].Err, &pe) {
		t.Fatalf("want PanicError, got %T: %v", failures[0].Err, failures[0].Err)
	}
	if pe.Value != "poisoned history" || len(pe.Stack) == 0 {
		t.Errorf("panic payload not captured: %+v", pe)
	}
	if !strings.Contains(pe.Error(), "poisoned history") {
		t.Errorf("Error() = %q", pe.Error())
	}
	if results[0] != 0 || results[2] != 2 || results[3] != 3 {
		t.Errorf("surviving results lost: %v", results)
	}
}

func TestMapEventsAndStages(t *testing.T) {
	var events []Event
	items := []int{0, 1, 2}
	_, _, err := mapSlice(context.Background(), items,
		func(ctx context.Context, i, item int) (int, error) {
			Stage(ctx, "extract")
			Stage(ctx, "measure")
			if i == 1 {
				return 0, errors.New("bad")
			}
			return item, nil
		}, Options{Workers: 2, Scope: "analyze", OnEvent: func(e Event) { events = append(events, e) }})
	if err != nil {
		t.Fatal(err)
	}
	var started, finished, failed int
	lastDone := 0
	for _, e := range events {
		if e.Scope != "analyze" {
			t.Errorf("event scope = %q, want %q", e.Scope, "analyze")
		}
		switch e.Type {
		case TaskStarted:
			started++
		case TaskFinished:
			finished++
		case TaskFailed:
			failed++
		}
		if e.Type != TaskStarted {
			if e.Done < lastDone {
				t.Errorf("Done went backwards: %d after %d", e.Done, lastDone)
			}
			lastDone = e.Done
			if len(e.Stages) != 2 || e.Stages[0].Name != "extract" || e.Stages[1].Name != "measure" {
				t.Errorf("stages = %+v", e.Stages)
			}
			if e.Total != 3 {
				t.Errorf("Total = %d", e.Total)
			}
		}
	}
	if started != 3 || finished != 2 || failed != 1 {
		t.Fatalf("event counts: started %d finished %d failed %d", started, finished, failed)
	}
	if lastDone != 3 {
		t.Errorf("final Done = %d", lastDone)
	}
}

// TestStreamSourceErrorAborts: a failing source aborts the stream with a
// SourceError regardless of policy, keeping the results emitted so far.
func TestStreamSourceErrorAborts(t *testing.T) {
	boom := errors.New("corrupt corpus")
	var next atomic.Int64
	src := SourceFunc[int](func(context.Context) (int, int, bool, error) {
		i := int(next.Add(1)) - 1
		if i == 5 {
			return 0, 0, false, boom
		}
		return i, i, true, nil
	})
	var emitted atomic.Int64
	_, err := Stream(context.Background(), src,
		func(_ context.Context, i, item int) (int, error) { return item, nil },
		func(int, int) error { emitted.Add(1); return nil },
		StreamOptions{Options: Options{Workers: 2}})
	var se *SourceError
	if !errors.As(err, &se) || !errors.Is(err, boom) {
		t.Fatalf("want SourceError wrapping the cause, got %v", err)
	}
	if emitted.Load() > 5 {
		t.Errorf("emitted %d results from a 5-item source", emitted.Load())
	}
}

// TestStreamSinkErrorAborts: a refusing sink cancels the run and the
// error surfaces wrapped in a SinkError.
func TestStreamSinkErrorAborts(t *testing.T) {
	full := errors.New("disk full")
	src := &countingSource{n: 100}
	_, err := Stream(context.Background(), src,
		func(_ context.Context, i, item int) (int, error) { return item, nil },
		func(i, res int) error {
			if i == 3 {
				return full
			}
			return nil
		}, StreamOptions{Options: Options{Workers: 4}, Total: 100})
	var se *SinkError
	if !errors.As(err, &se) || !errors.Is(err, full) {
		t.Fatalf("want SinkError wrapping the cause, got %v", err)
	}
	if src.claimed == 100 {
		t.Error("sink error did not stop the source from being drained")
	}
}

// TestStreamFailFast stops claiming new work at the first task failure.
func TestStreamFailFast(t *testing.T) {
	boom := errors.New("boom")
	src := &countingSource{n: 200}
	_, err := Stream(context.Background(), src,
		func(_ context.Context, i, item int) (int, error) {
			if i == 0 {
				return 0, boom
			}
			time.Sleep(time.Millisecond)
			return item, nil
		},
		func(int, int) error { return nil },
		StreamOptions{Options: Options{Workers: 2, Policy: FailFast}, Total: 200})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("FailFast must surface the trigger, got %v", err)
	}
	if src.claimed == 200 {
		t.Error("FailFast did not stop the pool from draining the source")
	}
}

// TestStreamEvents checks the event stream carries scope, total and
// monotone Done counts, and that a source may record stages that land in
// the claiming task's timings.
func TestStreamEvents(t *testing.T) {
	const n = 8
	var next atomic.Int64
	src := SourceFunc[int](func(ctx context.Context) (int, int, bool, error) {
		i := int(next.Add(1)) - 1
		if i >= n {
			return 0, 0, false, nil
		}
		Stage(ctx, "generate")
		return i, i, true, nil
	})
	var events []Event
	_, err := Stream(context.Background(), src,
		func(ctx context.Context, i, item int) (int, error) {
			Stage(ctx, "analyze")
			return item, nil
		},
		func(int, int) error { return nil },
		StreamOptions{Options: Options{Workers: 3, Scope: "study",
			OnEvent: func(e Event) { events = append(events, e) }}, Total: n})
	if err != nil {
		t.Fatal(err)
	}
	var finished, lastDone int
	for _, e := range events {
		if e.Scope != "study" {
			t.Errorf("scope = %q", e.Scope)
		}
		if e.Type != TaskFinished {
			continue
		}
		finished++
		if e.Done < lastDone {
			t.Errorf("Done went backwards: %d after %d", e.Done, lastDone)
		}
		lastDone = e.Done
		if e.Total != n {
			t.Errorf("Total = %d, want %d", e.Total, n)
		}
		if len(e.Stages) != 2 || e.Stages[0].Name != "generate" || e.Stages[1].Name != "analyze" {
			t.Errorf("stages = %+v (source stage lost?)", e.Stages)
		}
	}
	if finished != n {
		t.Fatalf("finished events = %d, want %d", finished, n)
	}
}

// TestStreamEmptySource returns immediately with no emissions.
func TestStreamEmptySource(t *testing.T) {
	src := &countingSource{n: 0}
	failures, err := Stream(context.Background(), src,
		func(_ context.Context, i, item int) (int, error) { return item, nil },
		func(int, int) error {
			t.Error("emit called for an empty source")
			return nil
		}, StreamOptions{Options: Options{Workers: 4}})
	if err != nil || len(failures) != 0 {
		t.Fatalf("empty stream: %v %v", failures, err)
	}
}

// TestStreamDuplicateIndexDetected guards the re-sequencer invariant: a
// source that repeats an index is reported, not deadlocked on.
func TestStreamDuplicateIndexDetected(t *testing.T) {
	var calls atomic.Int64
	src := SourceFunc[int](func(context.Context) (int, int, bool, error) {
		c := calls.Add(1)
		if c > 10 {
			return 0, 0, false, nil
		}
		return 0, 0, true, nil // index 0 forever
	})
	done := make(chan error, 1)
	go func() {
		_, err := Stream(context.Background(), src,
			func(_ context.Context, i, item int) (int, error) { return item, nil },
			func(int, int) error { return nil },
			StreamOptions{Options: Options{Workers: 2}})
		done <- err
	}()
	select {
	case err := <-done:
		var se *SourceError
		if !errors.As(err, &se) {
			t.Fatalf("want SourceError for duplicate index, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("duplicate-index source wedged the stream")
	}
}

// TestStreamUnknownTotal runs without Total: events carry Total 0 and the
// stream still terminates cleanly.
func TestStreamUnknownTotal(t *testing.T) {
	src := &countingSource{n: 30}
	var got int
	_, err := Stream(context.Background(), src,
		func(_ context.Context, i, item int) (int, error) { return item, nil },
		func(i, res int) error { got++; return nil },
		StreamOptions{Options: Options{Workers: 4, OnEvent: func(e Event) {
			if e.Total != 0 {
				t.Errorf("unknown-length stream reported Total %d", e.Total)
			}
		}}})
	if err != nil || got != 30 {
		t.Fatalf("got %d results, err %v", got, err)
	}
}
