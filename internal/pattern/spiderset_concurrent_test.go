package pattern

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/canon"
	"repro/internal/graph"
)

// randomConnected builds a small random connected pattern graph.
func randomConnected(n, labels int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n, 2*n)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(labels)))
	}
	for i := 1; i < n; i++ {
		b.AddEdge(graph.V(i), graph.V(rng.Intn(i)))
	}
	for i := 0; i < n/2; i++ {
		b.AddEdge(graph.V(rng.Intn(n)), graph.V(rng.Intn(n)))
	}
	return b.Build()
}

// TestSpiderSetSignatureConcurrent exercises signature caching from many
// goroutines — each on its own Pattern (the supported contract; the cache
// fields are unsynchronized per pattern) — all drawing Canonizers from
// the shared package pool. Signatures must match a sequentially computed
// baseline, and the run must be clean under -race.
func TestSpiderSetSignatureConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const nPatterns = 24
	graphs := make([]*graph.Graph, nPatterns)
	want := make([]uint64, nPatterns)
	for i := range graphs {
		graphs[i] = randomConnected(4+rng.Intn(10), 3, rng)
		cz := canon.GetCanonizer()
		want[i] = New(graphs[i], nil).SpiderSetSignatureWith(cz, 1)
		canon.PutCanonizer(cz)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cz := canon.GetCanonizer()
			defer canon.PutCanonizer(cz)
			for i, g := range graphs {
				p := New(g, nil)
				if got := p.SpiderSetSignatureWith(cz, 1); got != want[i] {
					errs <- "concurrent signature mismatch"
					return
				}
				// Second read hits the per-pattern cache.
				if got := p.SpiderSetSignatureWith(cz, 1); got != want[i] {
					errs <- "cached signature mismatch"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestCanonicalCodeWithConcurrent drives the cached canonical code the
// same way: distinct patterns per goroutine, Canonizers shared via the
// pool, codes compared against a sequential baseline.
func TestCanonicalCodeWithConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const nPatterns = 24
	graphs := make([]*graph.Graph, nPatterns)
	want := make([]string, nPatterns)
	for i := range graphs {
		graphs[i] = randomConnected(4+rng.Intn(10), 3, rng)
		cz := canon.GetCanonizer()
		want[i] = New(graphs[i], nil).CanonicalCodeWith(cz)
		canon.PutCanonizer(cz)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cz := canon.GetCanonizer()
			defer canon.PutCanonizer(cz)
			for i, g := range graphs {
				p := New(g, nil)
				if p.CanonicalCodeWith(cz) != want[i] {
					errs <- "concurrent canonical code mismatch"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
