// Package claim runs a loop body over the indices 0 to n-1 on a fixed
// set of worker goroutines that claim the indices themselves, from one
// shared counter, in ascending order. No goroutine hands indices out,
// so a worker never waits for one to be handed over: the fault
// campaign's site and target pools and the suite's benchmark pool run
// on it.
package claim

import (
	"context"
	"sync"
	"sync/atomic"
)

// Each calls work(w, i) once for every index i from 0 to n-1, on up to
// workers goroutines; w, from 0 to workers-1, names the goroutine, so a
// caller can keep per-worker state in a slice. Indices are claimed in
// ascending order, so with one worker work sees them in that order.
// Each worker checks ctx before it claims an index and runs every index
// it claims, so once ctx is cancelled the workers stop claiming, and
// Each returns ctx.Err() exactly when an index was left unrun. It
// returns only after every worker has exited.
func Each(ctx context.Context, n, workers int, work func(w, i int)) error {
	workers = min(max(workers, 1), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				work(w, i)
			}
		}()
	}
	wg.Wait()
	if int(next.Load()) < n {
		return ctx.Err()
	}
	return nil
}
