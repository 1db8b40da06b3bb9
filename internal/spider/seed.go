package spider

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// ComputeM returns the number of seed spiders to draw so that, by Lemma 2,
// all top-K largest patterns are identified with probability at least 1−ε:
// the minimal M with (1 − (M+1)(1−Vmin/|V|)^M)^K ≥ 1−ε.
//
// With ε=0.1, K=10, Vmin=|V|/10 this yields M≈85–86, matching the paper's
// worked example. MaxM caps the search (the draw can never exceed the
// mined star list anyway).
func ComputeM(numVertices, vmin, k int, epsilon float64) int {
	if numVertices <= 0 || vmin <= 0 || k <= 0 {
		return 1
	}
	q := float64(vmin) / float64(numVertices)
	if q >= 1 {
		return 2
	}
	target := 1 - epsilon
	const maxM = 1 << 22
	for m := 2; m <= maxM; m++ {
		pfail := float64(m+1) * math.Pow(1-q, float64(m))
		if pfail >= 1 {
			continue
		}
		if math.Pow(1-pfail, float64(k)) >= target {
			return m
		}
	}
	return maxM
}

// PSuccess evaluates the Lemma 2 lower bound on the probability that all
// top-K patterns are successfully identified with M seed spiders.
func PSuccess(numVertices, vmin, k, m int) float64 {
	q := float64(vmin) / float64(numVertices)
	pfail := float64(m+1) * math.Pow(1-q, float64(m))
	if pfail < 0 {
		pfail = 0
	}
	if pfail > 1 {
		pfail = 1
	}
	return math.Pow(1-pfail, float64(k))
}

// Seeder owns the random-draw scratch — the permutation buffer and one
// Materializer — so repeated draws (one per restart) stop allocating
// per-call tables. The zero value is ready to use; a Seeder is not safe
// for concurrent use.
type Seeder struct {
	perm []int32 // the table bounds the star count by int32
	mz   Materializer
}

// Draw draws up to m distinct stars uniformly at random from stars (S_all,
// in table order) and materializes each as a seed Pattern with its
// embeddings in g, up to MaxEmbPerHost per hosting head. IDs are assigned
// 0..len-1 in draw order.
//
// The draw consumes rng in full first; the seeds are then materialized on
// the calling goroutine, in draw order, with ctx polled before each. So a
// cancelled draw (nil result + ctx.Err()) leaves the caller's rng stream
// exactly where an uncancelled draw would.
func (sd *Seeder) Draw(ctx context.Context, g *graph.Graph, stars *Stars, m int, rng *rand.Rand) ([]*pattern.Pattern, error) {
	n := stars.Len()
	if m > n {
		m = n
	}
	// In-place replica of rand.Perm: identical rng consumption (one
	// Intn(i+1) per i in [0, n) — the i=0 draw is a no-op swap but rand.Perm
	// performs it for Go 1 stream compatibility, so we must too) and
	// identical output, into a reused buffer.
	if cap(sd.perm) < n {
		sd.perm = make([]int32, n)
	}
	perm := sd.perm[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = int32(i)
	}
	seeds := make([]*pattern.Pattern, m)
	for i, s := range perm[:m] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seeds[i] = sd.mz.Materialize(g, stars, int(s))
		seeds[i].ID = i
	}
	return seeds, nil
}

// MaxEmbPerHost bounds how many embeddings are enumerated per hosting
// head vertex when materializing a seed spider (leaf-choice combinations
// can be C(degree, leaves) otherwise).
const MaxEmbPerHost = 8

// Materializer materializes mined stars as seed Patterns, reusing the
// per-head enumeration scratch (the star's leaves, label groups, candidate
// lists, assignment frames) across heads and stars. The zero value is
// ready to use; a Materializer is not safe for concurrent use.
type Materializer struct {
	leaves []graph.Label
	groups []leafGroup
	cand   [][]graph.V
	assign [][]graph.V
	cidx   [][]int     // per-group combination index scratch
	cbuf   [][]graph.V // per-group combination output scratch
	b      graph.Builder
}

// leafGroup is a run of equal leaf labels with its multiplicity.
type leafGroup struct {
	label graph.Label
	count int
}

// Materialize turns star i of stars into a Pattern whose graph has the
// head at vertex 0 and whose embeddings enumerate, per hosting head, up to
// MaxEmbPerHost distinct leaf assignments. The star's leaves are rebuilt
// from its parent chain.
func (mz *Materializer) Materialize(g *graph.Graph, stars *Stars, i int) *pattern.Pattern {
	mz.leaves = stars.AppendLeaves(mz.leaves[:0], i)
	s := Star{Head: stars.Head(i), Leaves: mz.leaves}
	// Star.Graph() through the reused builder (the Graph it returns is
	// fresh and retained by the pattern; only builder churn is pooled).
	mz.b.Reset(1+len(s.Leaves), len(s.Leaves))
	head := mz.b.AddVertex(s.Head)
	for _, l := range s.Leaves {
		leaf := mz.b.AddVertex(l)
		mz.b.AddEdge(head, leaf)
	}
	pg := mz.b.Build()
	var embs []pattern.Embedding
	for _, h := range stars.Hosts(i) {
		embs = mz.appendStarEmbeddings(embs, g, s, h)
	}
	p := pattern.New(pg, embs)
	p.Origin = 0
	return p
}

// appendStarEmbeddings appends up to MaxEmbPerHost distinct leaf assignments
// of the star at the given head to embs. Leaves with equal labels are
// interchangeable, so assignments are enumerated as combinations per label
// group (host neighbors in sorted order), which both avoids duplicate
// subgraphs and keeps enumeration deterministic. The only per-embedding
// allocation is the retained embedding itself.
func (mz *Materializer) appendStarEmbeddings(embs []pattern.Embedding, g *graph.Graph, s Star, head graph.V) []pattern.Embedding {
	// Group leaf labels with multiplicities (Leaves is sorted).
	mz.groups = mz.groups[:0]
	for _, l := range s.Leaves {
		if n := len(mz.groups); n > 0 && mz.groups[n-1].label == l {
			mz.groups[n-1].count++
		} else {
			mz.groups = append(mz.groups, leafGroup{l, 1})
		}
	}
	groups := mz.groups
	// Candidate neighbors per group, reusing the backing arrays from
	// earlier heads. Combination scratch is per group depth — the
	// enumeration nests one combinations walk per group, so the frames
	// must not share buffers.
	for len(mz.cand) < len(groups) {
		mz.cand = append(mz.cand, nil)
		mz.assign = append(mz.assign, nil)
		mz.cidx = append(mz.cidx, nil)
		mz.cbuf = append(mz.cbuf, nil)
	}
	cand := mz.cand[:len(groups)]
	for gi, gr := range groups {
		cand[gi] = cand[gi][:0]
		for _, w := range g.Neighbors(head) {
			if g.Label(w) == gr.label {
				cand[gi] = append(cand[gi], w)
			}
		}
		if len(cand[gi]) < gr.count {
			return embs
		}
	}
	base := len(embs)
	assignment := mz.assign[:len(groups)]
	var rec func(gi int)
	rec = func(gi int) {
		if len(embs)-base >= MaxEmbPerHost {
			return
		}
		if gi == len(groups) {
			emb := make(pattern.Embedding, 0, 1+len(s.Leaves))
			emb = append(emb, head)
			for _, chosen := range assignment {
				emb = append(emb, chosen...)
			}
			embs = append(embs, emb)
			return
		}
		combinationsInto(cand[gi], groups[gi].count, &mz.cidx[gi], &mz.cbuf[gi], func(chosen []graph.V) bool {
			assignment[gi] = chosen
			rec(gi + 1)
			return len(embs)-base < MaxEmbPerHost
		})
	}
	rec(0)
	return embs
}

// combinationsInto enumerates k-subsets of xs in lexicographic order,
// calling fn with each; fn returning false stops enumeration. idxp/bufp
// are caller-owned scratch grown in place (one pair per nesting depth).
func combinationsInto(xs []graph.V, k int, idxp *[]int, bufp *[]graph.V, fn func([]graph.V) bool) {
	n := len(xs)
	if k > n || k <= 0 {
		return
	}
	if cap(*idxp) < k {
		*idxp = make([]int, k)
		*bufp = make([]graph.V, k)
	}
	idx, buf := (*idxp)[:k], (*bufp)[:k]
	for i := range idx {
		idx[i] = i
	}
	for {
		for i, j := range idx {
			buf[i] = xs[j]
		}
		if !fn(buf) {
			return
		}
		// advance
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
