package claim

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachRunsEveryIndexOnce runs Each over 0 to 40 indices on 1 to 8
// workers and requires every index to run exactly once, each on a
// worker number below the worker count.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for workers := 1; workers <= 8; workers++ {
			runs := make([]atomic.Int32, n)
			err := Each(context.Background(), n, workers, func(w, i int) {
				if w < 0 || w >= workers {
					t.Errorf("n=%d workers=%d: index %d ran on worker %d", n, workers, i, w)
				}
				runs[i].Add(1)
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, got)
				}
			}
		}
	}
}

// TestEachOneWorkerAscending pins the claim order: one worker sees the
// indices in ascending order.
func TestEachOneWorkerAscending(t *testing.T) {
	var seen []int
	if err := Each(context.Background(), 25, 1, func(_, i int) { seen = append(seen, i) }); err != nil {
		t.Fatal(err)
	}
	for i, got := range seen {
		if got != i {
			t.Fatalf("call %d worked index %d, want %d", i, got, i)
		}
	}
	if len(seen) != 25 {
		t.Fatalf("%d indices worked, want 25", len(seen))
	}
}

// TestEachCancelledAfterK cancels the context from inside the k-th
// call, for every k from 1 to n, on one worker and on three. One worker
// must stop after exactly k calls; every worker count must return
// context.Canceled exactly when an index was left unrun, which for k = n
// it is not, and no worker may outlive the call.
func TestEachCancelledAfterK(t *testing.T) {
	const n = 12
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 3} {
		for k := 1; k <= n; k++ {
			ctx, cancel := context.WithCancel(context.Background())
			var calls atomic.Int32
			ran := make([]atomic.Bool, n)
			err := Each(ctx, n, workers, func(_, i int) {
				ran[i].Store(true)
				if calls.Add(1) == int32(k) {
					cancel()
				}
			})
			cancel()
			unrun := 0
			for i := range ran {
				if !ran[i].Load() {
					unrun++
				}
			}
			if workers == 1 && int(calls.Load()) != k {
				t.Errorf("one worker, cancelled in call %d: %d calls", k, calls.Load())
			}
			if (unrun > 0) != errors.Is(err, context.Canceled) || (unrun == 0 && err != nil) {
				t.Errorf("workers=%d, cancelled in call %d: %d indices unrun, Each returned %v", workers, k, unrun, err)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d -> %d", before, after)
	}
}

// TestEachCancelledBeforeStart runs nothing on a cancelled context.
func TestEachCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Each(ctx, 5, 2, func(_, i int) { t.Errorf("index %d ran on a cancelled context", i) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Each = %v, want context.Canceled", err)
	}
	if err := Each(ctx, 0, 2, func(int, int) {}); err != nil {
		t.Fatalf("Each over no indices = %v, want nil: nothing was left unrun", err)
	}
}
