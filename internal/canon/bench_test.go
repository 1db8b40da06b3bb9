package canon

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func benchGraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return randomGraph(n, 2*n, 4, rng)
}

// BenchmarkInvariant refines a random 50-vertex graph and a hub-heavy
// 600-vertex BA graph, whose hubs have hundreds of neighbours: the shape
// of the merge check's largest unions.
func BenchmarkInvariant(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"n=50", benchGraph(50, 1)},
		{"ba600", gen.BarabasiAlbert(600, 2, 50, rand.New(rand.NewSource(1)))},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Invariant(c.g)
			}
		})
	}
}

// BenchmarkIsomorphicPositive maps a random graph onto a permuted copy.
// The 600-vertex case is large enough for the cost of ordering the
// search's vertices to show.
func BenchmarkIsomorphicPositive(b *testing.B) {
	for _, n := range []int{30, 600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			g := benchGraph(n, 2)
			h := permute(g, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !Isomorphic(g, h) {
					b.Fatal("should match")
				}
			}
		})
	}
}

func BenchmarkIsomorphicNegative(b *testing.B) {
	g := benchGraph(30, 3)
	h := benchGraph(30, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Isomorphic(g, h)
	}
}

// BenchmarkCanonicalCode measures the existing corpus (the random
// 20-vertex pattern the seed benchmark used): the pooled string API and a
// warm owned Canonizer via Append, which must run at 0 allocs/op.
func BenchmarkCanonicalCode(b *testing.B) {
	g := benchGraph(20, 5)
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			CanonicalCode(g)
		}
	})
	b.Run("warm", func(b *testing.B) {
		cz := NewCanonizer()
		var buf []byte
		buf = cz.Append(buf, g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = cz.Append(buf[:0], g)
		}
	})
}

// BenchmarkCanonicalCodeHub is the tentpole shape: a single hub with k
// interchangeable legs, where the pre-v2 individualization search
// explored ~k! leaf orderings (effectively non-terminating at k=64; the
// acceptance bar is < 1ms there). Orbit pruning holds it to O(k^2)
// search nodes.
func BenchmarkCanonicalCodeHub(b *testing.B) {
	for _, legs := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("legs=%d", legs), func(b *testing.B) {
			g := star(legs, 0, 0)
			cz := NewCanonizer()
			var buf []byte
			buf = cz.Append(buf, g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = cz.Append(buf[:0], g)
			}
		})
	}
}

// BenchmarkCanonicalCodeSymmetric covers the other shapes with large
// automorphism groups: uniform cycles, complete bipartite graphs, and
// the hub-with-long-legs spider a cancelled run can hold.
func BenchmarkCanonicalCodeSymmetric(b *testing.B) {
	shapes := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle32", cycle(32, 0)},
		{"k44", completeBipartite(4, 4, 0)},
		{"k88", completeBipartite(8, 8, 0)},
		{"spider16x3", spiderLegs(16, 3, 0)},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			cz := NewCanonizer()
			var buf []byte
			buf = cz.Append(buf, s.g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = cz.Append(buf[:0], s.g)
			}
		})
	}
}

func BenchmarkCountEmbeddings(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	host := randomGraph(200, 500, 3, rng)
	pat := path(0, 1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountEmbeddings(pat, host, 0)
	}
}

// BenchmarkEnumerateEmbeddings measures a warm reusable Matcher on the
// full distinct-image enumeration — the matcher inner loop must stay at
// 0 allocs/op.
func BenchmarkEnumerateEmbeddings(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	host := randomGraph(200, 500, 3, rng)
	pat := path(0, 1, 2)
	opt := MatchOptions{Anchor: -1, DistinctImages: true}
	var mt Matcher
	if n := mt.Enumerate(pat, host, opt, func(Mapping) bool { return true }); n == 0 {
		b.Fatal("no embeddings")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt.Enumerate(pat, host, opt, func(Mapping) bool { return true })
	}
}

// BenchmarkEnumerateEmbeddingsReference is the retained naive matcher on
// the same workload, for before/after comparison.
func BenchmarkEnumerateEmbeddingsReference(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	host := randomGraph(200, 500, 3, rng)
	pat := path(0, 1, 2)
	opt := MatchOptions{Anchor: -1, DistinctImages: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EnumerateEmbeddingsReference(pat, host, opt, func(Mapping) bool { return true })
	}
}

// BenchmarkImageKey measures image identification for one mapping: the
// matcher's internal 128-bit hash (0 allocs), the reusable-buffer string
// key, and the plain ImageKey string for reference.
func BenchmarkImageKey(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	host := randomGraph(100, 250, 3, rng)
	pat := randomConnectedPattern(6, 3, 3, rng)
	// Keying only reads the mapping as indices into the host, so a
	// synthetic injective mapping exercises it fully.
	mp := make(Mapping, pat.N())
	for i := range mp {
		mp[i] = graph.V(i * 7 % host.N())
	}
	b.Run("hash", func(b *testing.B) {
		keyer := Matcher{p: pat, g: host, mapping: mp}
		keyer.pEdges = appendEdges(nil, pat)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = keyer.imageHash()
		}
	})
	b.Run("append", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendImageKey(buf[:0], pat, mp)
		}
	})
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ImageKey(pat, mp)
		}
	})
}
