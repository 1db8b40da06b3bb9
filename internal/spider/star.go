// Package spider implements Stage I of SpiderMine: mining all frequent
// r-spiders of the host graph, the seed-count computation M(K, ε, Vmin) of
// Lemma 2, and the random seed draw.
//
// For the default radius r=1 a spider is a star: a head label plus a
// multiset of leaf labels. Stars are enumerated level-wise over the leaf
// multiset with apriori pruning on head-count support. Deeper spiders
// (r >= 2) are rooted label trees mined by composing stars (see tree.go);
// their cost grows exponentially in r, matching Appendix C(3).
package spider

import (
	"context"
	"strconv"

	"repro/internal/graph"
)

// Star is a radius-1 spider: Head is the head vertex label; Leaves is the
// sorted multiset of leaf labels.
type Star struct {
	Head   graph.Label
	Leaves []graph.Label
}

// Key returns a canonical string key for the star.
func (s Star) Key() string {
	b := make([]byte, 0, 4+4*len(s.Leaves))
	b = strconv.AppendInt(b, int64(s.Head), 10)
	b = append(b, ':')
	for i, l := range s.Leaves {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(l), 10)
	}
	return string(b)
}

// Graph materializes the star as a pattern graph: vertex 0 is the head.
func (s Star) Graph() *graph.Graph {
	b := graph.NewBuilder(1+len(s.Leaves), len(s.Leaves))
	head := b.AddVertex(s.Head)
	for _, l := range s.Leaves {
		leaf := b.AddVertex(l)
		b.AddEdge(head, leaf)
	}
	return b.Build()
}

// Size returns the number of edges of the star.
func (s Star) Size() int { return len(s.Leaves) }

// MinedStar couples a star with the host head vertices that can host it.
type MinedStar struct {
	Star  Star
	Hosts []graph.V // sorted head vertices v with label(v)=Head and enough labeled neighbors
}

// Support returns the head-count support of the star: the number of
// distinct host vertices whose neighborhoods contain the leaf multiset.
// This is the harmful-overlap support of a star up to leaf sharing, and is
// anti-monotone in the leaf multiset.
func (m *MinedStar) Support() int { return len(m.Hosts) }

// Options configures spider mining.
type Options struct {
	// MinSupport is the support threshold σ.
	MinSupport int
	// MaxLeaves caps the number of leaves per star (0 = max degree).
	// Larger stars are closed under the growth procedure anyway, so a cap
	// bounds Stage I without losing large patterns.
	MaxLeaves int
	// Radius r of the spiders (1 or 2+; radius >= 2 uses tree spiders).
	Radius int
	// MaxSpiders aborts enumeration past this many frequent spiders
	// (0 = unlimited); scale-free graphs can produce millions (Fig. 17).
	MaxSpiders int
	// Workers parallelizes Stage I: 0/1 sequential, > 1 that many
	// goroutines, < 0 GOMAXPROCS. The level-1 scan partitions head
	// vertices across workers (contiguous chunks merged in chunk order)
	// and level expansion shards parent stars (outputs reduced in frontier
	// order), so the mined spider list is identical across settings.
	Workers int
}

// MineStars enumerates all frequent stars of g level-wise with no
// cancellation; see MineStarsContext.
func MineStars(g *graph.Graph, opt Options) []*MinedStar {
	stars, _ := MineStarsContext(context.Background(), g, opt)
	return stars
}

// MineStarsContext enumerates all frequent stars of g level-wise.
//
// Level 1 counts single-leaf stars from the edge list. Level k+1 extends
// each frequent star by one leaf label >= its last leaf (canonical
// generation order, no duplicates), re-verifying hosts. Hosts are carried
// level to level so each extension only scans its parent's host list.
//
// The stars come out level by level, and each level is ordered by head
// label, then leaf multiset (lexicographic, shorter first on a common
// prefix). Level 1 is sorted; no later level needs a sort, because each
// parent's extensions come out in ascending new-leaf order with the
// parent's leaves as a prefix, concatenated in parent order. MaxSpiders
// truncation keeps a prefix. The seed draw indexes the stars in this
// order, so it is part of every result.
//
// Cancellation is observed between levels and inside each level's sharded
// expansion; on ctx expiry the stars of every *completed* level are
// returned alongside ctx.Err() — levels commit atomically, so the partial
// star list is deterministic for a cancellation observed at any given
// level.
//
// Each call runs on a throwaway StarMiner, so the returned stars are
// caller-owned; loops that mine repeatedly should hold a StarMiner and
// call its Mine method to reuse the scratch (minding its output-ownership
// contract).
func MineStarsContext(ctx context.Context, g *graph.Graph, opt Options) ([]*MinedStar, error) {
	var sm StarMiner
	return sm.Mine(ctx, g, opt)
}
