package main

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToLaterRequests is the coordinated-omission
// case: the server stalls once for 200ms and, while it does, answers
// nothing else. Requests due during the stall are sent late, so timed
// from their send they look fast; timed from their due time they carry
// the stall, and the generator reports the lag.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		stall    = 200 * time.Millisecond
		interval = 5 * time.Millisecond
		n        = 100
		stallAt  = 10
	)
	var mu sync.Mutex
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if calls.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	defer client.CloseIdleConnections()

	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * interval
	}
	sendTime := make([]time.Duration, n) // round trip alone, as a closed loop would time it
	shots := openLoop(time.Now(), due, 2, func(i int) error {
		t0 := time.Now()
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		sendTime[i] = time.Since(t0)
		return err
	})

	var late, hiddenBySendTiming int
	var maxLag time.Duration
	for i, s := range shots {
		if s.err != nil {
			t.Fatalf("request %d: %v", i, s.err)
		}
		if s.latency < sendTime[i] {
			t.Errorf("request %d: latency from due %v below its round trip %v", i, s.latency, sendTime[i])
		}
		maxLag = max(maxLag, s.lag)
		if i > stallAt && s.latency > stall/2 {
			late++
			if sendTime[i] < stall/4 {
				hiddenBySendTiming++
			}
		}
	}
	// Requests due in the first half of the stall, 20 at this spacing,
	// wait at least stall/2 each.
	if late < 15 {
		t.Errorf("%d requests after the stalled one absorbed more than %v; want the stall charged to ≥15", late, stall/2)
	}
	if hiddenBySendTiming < 10 {
		t.Errorf("only %d of them would look fast timed from their send; want ≥10", hiddenBySendTiming)
	}
	if maxLag < stall/2 {
		t.Errorf("max dispatch lag %v; want the generator to report running ≥%v late", maxLag, stall/2)
	}
}

func TestArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const d = 100 * time.Second
	got := arrivals(rng, 4000, d)
	if len(got) != 4000 {
		t.Fatalf("%d arrivals, want 4000", len(got))
	}
	// Poisson arrivals leave exponential gaps: about 1/e of them exceed
	// the mean gap of 25ms.
	long := 0
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("arrivals out of order at %d", i)
		}
		if got[i]-got[i-1] > 25*time.Millisecond {
			long++
		}
	}
	if got[0] < 0 || got[len(got)-1] >= d || long < 1300 || long > 1650 {
		t.Fatalf("arrivals span %v..%v, %d gaps above the mean; want within [0, %v) and ≈1470", got[0], got[len(got)-1], long, d)
	}
}
