package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != 1 {
		t.Fatalf("Resolve(0) = %d, want 1", got)
	}
	if got := Resolve(1); got != 1 {
		t.Fatalf("Resolve(1) = %d, want 1", got)
	}
	if got := Resolve(7); got != 7 {
		t.Fatalf("Resolve(7) = %d, want 7", got)
	}
	if got := Resolve(-1); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(-1) = %d, want GOMAXPROCS", got)
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

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 500
	want, err := Map(context.Background(), n, 1, func(_, i int) int { return i * i })
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, -1} {
		got, err := Map(context.Background(), n, workers, func(_, i int) int { return i * i })
		if err != nil {
			t.Fatalf("workers=%d: Map: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
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
// ctx.Err() without running every item (sequential path may run up to one
// check stride; parallel path may race a few claims).
func TestDoCancelPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := Do(ctx, 100000, workers, func(_, _ int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); int(n) >= 100000 {
			t.Fatalf("workers=%d: cancelled Do ran all %d items", workers, n)
		}
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
