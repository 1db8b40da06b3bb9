// Package spider implements Stage I of SpiderMine: mining all frequent
// r-spiders of the host graph, the per-head spider index Spider(v), the
// seed-count computation M(K, ε, Vmin) of Lemma 2, and the random seed
// draw.
//
// For the default radius r=1 a spider is a star: a head label plus a
// multiset of leaf labels. Stars are enumerated level-wise over the leaf
// multiset with apriori pruning on head-count support. Deeper spiders
// (r >= 2) are rooted label trees mined by composing stars (see tree.go);
// their cost grows exponentially in r, matching Appendix C(3).
package spider

import (
	"context"
	"slices"
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

// cmpStars orders mined stars by head label, then leaf multiset
// (lexicographic, shorter first on common prefix). Equivalent to ordering
// by Key() up to the digit-string vs numeric distinction; used by
// sortMined so the comparator never formats strings.
func cmpStars(a, b *MinedStar) int {
	if a.Star.Head != b.Star.Head {
		return int(a.Star.Head) - int(b.Star.Head)
	}
	al, bl := a.Star.Leaves, b.Star.Leaves
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return int(al[i]) - int(bl[i])
		}
	}
	return len(al) - len(bl)
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
// Cancellation is observed between levels and inside each level's sharded
// expansion; on ctx expiry the stars of every *completed* level are
// returned alongside ctx.Err() — levels commit atomically, so the partial
// catalog is deterministic for a cancellation observed at any given level.
//
// Each call runs on a throwaway StarMiner, so the returned stars are
// caller-owned; loops that mine repeatedly should hold a StarMiner and
// call its Mine method to reuse the scratch (minding its output-ownership
// contract).
func MineStarsContext(ctx context.Context, g *graph.Graph, opt Options) ([]*MinedStar, error) {
	var sm StarMiner
	return sm.Mine(ctx, g, opt)
}

func sortMined(ms []*MinedStar) {
	slices.SortFunc(ms, cmpStars)
}

// Catalog indexes mined spiders for the random draw and the per-head
// Spider(v) lookup used by SpiderGrow and the Lemma 2 analysis. The
// per-head index is a flat CSR-shaped table (headOff/headIdx) instead of
// the historical map[graph.V][]int, rebuilt in place across runs by
// Rebuild.
type Catalog struct {
	Stars []*MinedStar

	nV      int
	headOff []int32 // len nV+1; spider-index range of v is headIdx[headOff[v]:headOff[v+1]]
	headIdx []int32
	cursor  []int32 // Rebuild fill scratch
}

// NewCatalog builds a catalog over mined stars.
func NewCatalog(stars []*MinedStar) *Catalog {
	c := &Catalog{}
	c.Rebuild(stars)
	return c
}

// Rebuild re-indexes the catalog over a new star list, reusing the
// catalog's backing tables. Per-head spider lists come out in ascending
// spider-index order, exactly as the map-era appends produced them.
func (c *Catalog) Rebuild(stars []*MinedStar) {
	c.Stars = stars
	maxV := -1
	total := 0
	for _, ms := range stars {
		total += len(ms.Hosts)
		for _, v := range ms.Hosts {
			if int(v) > maxV {
				maxV = int(v)
			}
		}
	}
	n := maxV + 1
	c.nV = n
	c.headOff = growI32(c.headOff, n+1)
	for i := range c.headOff {
		c.headOff[i] = 0
	}
	for _, ms := range stars {
		for _, v := range ms.Hosts {
			c.headOff[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		c.headOff[v+1] += c.headOff[v]
	}
	c.headIdx = growI32(c.headIdx, total)
	c.cursor = growI32(c.cursor, n)
	copy(c.cursor, c.headOff[:n])
	for i, ms := range stars {
		for _, v := range ms.Hosts {
			c.headIdx[c.cursor[v]] = int32(i)
			c.cursor[v]++
		}
	}
}

// Len returns the number of distinct frequent spiders |S_all|.
func (c *Catalog) Len() int { return len(c.Stars) }

// AtHead returns the indices of spiders hostable at head vertex v
// (the paper's Spider(v)), ascending. The slice aliases the catalog's
// index table; callers must not modify it.
func (c *Catalog) AtHead(v graph.V) []int32 {
	if v < 0 || int(v) >= c.nV {
		return nil
	}
	return c.headIdx[c.headOff[v]:c.headOff[v+1]]
}
