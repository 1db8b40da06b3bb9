package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestBound(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ n, workers, want int }{
		{100, 0, 1},
		{100, 1, 1},
		{100, 7, 7},
		{100, -1, min(procs, 100)},
		{3, 7, 3},
		{1, -1, 1},
		{0, 4, 1},
		{0, 0, 1},
	} {
		if got := Bound(c.n, c.workers); got != c.want {
			t.Errorf("Bound(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

func TestDoCoversEveryItemExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, -1} {
		const n = 1000
		hits := make([]atomic.Int32, n)
		if err := Do(context.Background(), n, workers, func(_, i int) {
			hits[i].Add(1)
		}); err != nil {
			t.Fatalf("workers=%d: Do: %v", workers, err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: item %d processed %d times", workers, i, c)
			}
		}
	}
}

func TestDoNilContext(t *testing.T) {
	ran := 0
	if err := Do(nil, 10, 1, func(_, _ int) { ran++ }); err != nil || ran != 10 {
		t.Fatalf("Do(nil ctx) err=%v ran=%d, want nil/10", err, ran)
	}
}

func TestDoWorkerIndexInRange(t *testing.T) {
	const n, workers = 200, 4
	var bad atomic.Int32
	Do(context.Background(), n, workers, func(w, _ int) {
		if w < 0 || w >= workers {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatal("worker index out of [0, workers)")
	}
}

func TestDoEmptyAndSingle(t *testing.T) {
	ran := 0
	Do(context.Background(), 0, 8, func(_, _ int) { ran++ })
	if ran != 0 {
		t.Fatal("Do(0, ...) ran items")
	}
	Do(context.Background(), 1, 8, func(w, i int) {
		if w != 0 || i != 0 {
			t.Fatalf("Do(1, ...) got (w=%d, i=%d)", w, i)
		}
		ran++
	})
	if ran != 1 {
		t.Fatal("Do(1, ...) did not run the single item")
	}
}

// TestDoCancelPreCancelled: a context cancelled before the call returns
// ctx.Err() without running any item, at any worker count.
func TestDoCancelPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := Do(ctx, 100000, workers, func(_, _ int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n != 0 {
			t.Fatalf("workers=%d: cancelled Do ran %d items", workers, n)
		}
	}
}

// TestDoParallelCancelNextClaim: every worker polls the context before
// each claim. Item 0 cancels and every other item waits for the cancel,
// so each worker holds at most one item when it lands, finishes it and
// claims no other: no more items run than there are workers.
func TestDoParallelCancelNextClaim(t *testing.T) {
	const workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	err := Do(ctx, 1000, workers, func(_, i int) {
		ran.Add(1)
		if i == 0 {
			cancel()
		}
		<-ctx.Done()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n > workers {
		t.Fatalf("%d items ran after a cancel with %d workers", n, workers)
	}
}

// TestDoCancelPrompt: cancelling mid-run aborts item claiming promptly —
// the call returns well within the cancellation-latency budget even
// though plenty of work remains.
func TestDoCancelPrompt(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		start := time.Now()
		errCh := make(chan error, 1)
		go func() {
			errCh <- Do(ctx, 1<<30, workers, func(_, _ int) {
				ran.Add(1)
				time.Sleep(50 * time.Microsecond)
			})
		}()
		for ran.Load() < 10 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		err := <-errCh
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("workers=%d: cancelled Do took %v", workers, el)
		}
	}
}

// TestDoSequentialCancelNextItem: with one worker, Do polls before every
// item, so a cancel raised inside item k leaves every later item unrun.
func TestDoSequentialCancelNextItem(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const k = 3
	ran := 0
	err := Do(ctx, 100, 1, func(_, i int) {
		ran++
		if i == k {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != k+1 {
		t.Fatalf("%d items ran, want %d: items after the cancel still ran", ran, k+1)
	}
}

// TestDoDeadline: a deadline context surfaces context.DeadlineExceeded.
func TestDoDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := Do(ctx, 1<<30, 2, func(_, _ int) { time.Sleep(100 * time.Microsecond) })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
