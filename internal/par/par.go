// Package par is the deterministic worker-pool substrate for the parallel
// mining stages. Its contract has three parts:
//
//   - Item-indexed slots: fn(worker, item) derives its result from item
//     (and shared-immutable state) alone and writes it to the item's slot.
//     The worker index exists solely to select per-worker scratch (one of
//     Workspace's slots, such as a grow or merge scratch), whose contents
//     may influence allocation behavior but never results.
//   - Ordered reduction: every cross-worker combination happens after the
//     join, in item order; accumulators (counters) are worker-indexed
//     (Slots) and reduced then. So a parallel stage's output is
//     bit-identical for any worker count: scheduling decides who computes
//     each slot, never what ends up in it.
//   - Cancellation before every claim: Do polls the context before it
//     claims each item, on its inline loop and on every worker, and never
//     for a context whose Done channel is nil (context.Background()). A
//     cancelled Do stops claiming, lets the items already running
//     complete, and returns ctx.Err(); which slots completed depends on
//     scheduling, so callers treat every slot of a cancelled call as
//     poisoned and fall back to their last reduced state.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Bound resolves a Workers configuration value against an item count:
// 0 and 1 mean one worker, negative means GOMAXPROCS, anything else is
// taken literally; the result is never more than n and never fewer than
// one. This is the worker count Do uses; callers that size per-worker
// scratch call Bound with the same arguments so scratch and pool agree.
func Bound(n, workers int) int {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// Do runs fn(worker, item) for every item in [0, n), spread over
// Bound(n, workers) goroutines. Items are handed out by an atomic counter,
// so the assignment of items to workers is load-balanced and unspecified
// (see the package contract). With one worker, fn runs inline on the
// caller's goroutine with worker index 0.
//
// A nil ctx is treated as context.Background(). Do returns ctx.Err() if
// the context fires before every item has been claimed, nil otherwise.
func Do(ctx context.Context, n, workers int, fn func(worker, item int)) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	workers = Bound(n, workers)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if fired(done) {
				return ctx.Err()
			}
			fn(0, i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !fired(done) {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
	// A worker stops early only when the context fired; otherwise some
	// worker claimed past the last item.
	if int(next.Load()) < n {
		return ctx.Err()
	}
	return nil
}

// fired reports whether done is closed. A nil done, an uncancellable
// context's, returns at once: a receive on it would cost about a
// nanosecond per item for nothing.
func fired(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}
