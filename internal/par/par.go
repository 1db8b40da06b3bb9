// Package par is the deterministic worker-pool substrate for the parallel
// mining stages. It deliberately exposes item-indexed primitives only:
// results land in slots keyed by item index and every cross-worker
// combination the callers perform happens in item order, so the output of
// a parallel stage is bit-identical to the sequential run for any worker
// count — the scheduling decides *who* computes each slot, never *what*
// ends up in it.
//
// Contract for fn passed to Do/Map: fn(worker, item) must derive its
// result from item (and shared-immutable state) alone. The worker index
// exists solely to select per-worker scratch — a canon.Matcher, a
// spider.Materializer, a grow scratch — whose contents may influence
// allocation behavior but never results. Accumulators (counters, "any
// progress" flags) must be worker-indexed and reduced after the join.
//
// Cancellation: Do and Map observe ctx cooperatively at item granularity
// and return ctx.Err() once it fires. The checks stay off the hot path —
// an uncancellable context (ctx.Done() == nil, e.g.
// context.Background()) takes the exact pre-context code path with zero
// added work, the sequential path makes one non-blocking receive before
// every item, and the parallel path reads one atomic flag per item claim
// (set by a watcher goroutine, never a select per item). A cancelled Do abandons
// unclaimed items and stops claiming new ones, but items already running
// complete; callers must treat all item slots of a cancelled call as
// poisoned and fall back to their last reduced state — which slots
// completed depends on scheduling, and determinism of partial results is
// only guaranteed at the caller's reduction boundaries.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve normalizes a Workers configuration value to an actual worker
// count: 0 and 1 mean sequential (one worker), negative means GOMAXPROCS,
// anything else is taken literally.
func Resolve(workers int) int {
	if workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if workers == 0 {
		return 1
	}
	return workers
}

// Bound resolves a Workers configuration value against an item count:
// never more workers than items, never fewer than one. This is the worker
// count Do uses internally; callers that size per-worker scratch
// ([]canon.Matcher, []Materializer, accumulator slices) call Bound with
// the same arguments so scratch and pool agree.
func Bound(n, workers int) int {
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Do runs fn(worker, item) for every item in [0, n), spread over at most
// `workers` goroutines (after Resolve; never more than n). Items are handed
// out by an atomic counter, so assignment of items to workers is
// load-balanced and unspecified — see the package contract. With one
// worker, fn runs inline on the caller's goroutine with worker index 0.
//
// A nil ctx is treated as context.Background(). Do returns ctx.Err() if
// the context fires before all items complete (see the package comment for
// the partial-execution contract), nil otherwise.
func Do(ctx context.Context, n, workers int, fn func(worker, item int)) error {
	workers = Bound(n, workers)
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if workers <= 1 {
		if done == nil {
			for i := 0; i < n; i++ {
				fn(0, i)
			}
			return nil
		}
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			fn(0, i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	if done == nil {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					fn(w, i)
				}
			}(w)
		}
		wg.Wait()
		return nil
	}
	// Cancellable fan-out: a watcher goroutine turns the ctx channel into
	// one atomic flag so each item claim costs a single relaxed load
	// instead of a select. An already-fired context is caught here, before
	// any goroutine spawns (the watcher alone could lose the scheduling
	// race to the workers on a loaded single-CPU host).
	select {
	case <-done:
		return ctx.Err()
	default:
	}
	var stop atomic.Bool
	quit := make(chan struct{})
	go func() {
		select {
		case <-done:
			stop.Store(true)
		case <-quit:
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	close(quit)
	if stop.Load() {
		return ctx.Err()
	}
	return nil
}

// Map runs fn(worker, item) for every item in [0, n) under Do's scheduling
// and returns the results indexed by item — the ordered-reduction shape
// every parallel stage reduces to. If ctx fires mid-run, Map returns the
// partially filled slice alongside ctx.Err(); callers must discard it.
func Map[T any](ctx context.Context, n, workers int, fn func(worker, item int) T) ([]T, error) {
	out := make([]T, n)
	err := Do(ctx, n, workers, func(w, i int) {
		out[i] = fn(w, i)
	})
	return out, err
}
