package main

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// shot is one request of an open-loop schedule as it happened. Latency
// runs from the request's due time, not from when a sender got to it, so
// a stall that holds up later requests is charged to them as well (the
// coordinated-omission case); lag is how late the sender started it.
type shot struct {
	latency time.Duration
	lag     time.Duration
	err     error
}

// openLoop issues one request per entry of due (offsets from start,
// ascending) from `senders` goroutines and waits for all of them. A
// sender takes the next request in schedule order, sleeps until it is
// due and calls send, which returns when the response was fully read. A
// request whose due time has passed is sent at once, so the schedule
// never adapts to how fast the server answers: with every sender busy,
// due requests wait and that wait shows in their latency and lag.
func openLoop(start time.Time, due []time.Duration, senders int, send func(i int) error) []shot {
	out := make([]shot, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				time.Sleep(time.Until(at))
				sent := time.Now()
				err := send(i)
				out[i] = shot{latency: time.Since(at), lag: sent.Sub(at), err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// arrivals returns the arrival offsets of a Poisson process over d
// conditioned on n arrivals: n uniform offsets in [0, d), sorted. Every
// schedule of one rate and length then offers the same number of
// requests; an unconditioned process would vary it by ±18% at 30
// arrivals, and the phase's CPU and memory with it.
func arrivals(rng *rand.Rand, n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(d)))
	}
	slices.Sort(out)
	return out
}
