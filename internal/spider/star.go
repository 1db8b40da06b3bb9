// Package spider implements Stage I of SpiderMine: mining all frequent
// r-spiders of the host graph, the seed-count computation M(K, ε, Vmin) of
// Lemma 2, and the random seed draw.
//
// For the default radius r=1 a spider is a star: a head label plus a
// multiset of leaf labels. Stars are enumerated level-wise over the leaf
// multiset with apriori pruning on head-count support, into one flat
// table without pointers (Stars): a fixed-size int32 record per star,
// whose leaves are read off its parent chain, and all host lists in one
// array. With a spider cap, Stage I stops building once the table is
// full. Deeper spiders (r >= 2) are rooted label trees mined by composing
// stars (see tree.go); their cost grows exponentially in r, matching
// Appendix C(3).
package spider

import (
	"context"
	"errors"
	"math"
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

// Stars is Stage I's output, S_all: every frequent star of a host, as
// one flat table with no pointers in it. Stars come level by level (by
// leaf count), and each level is ordered by head label, then leaf
// multiset (lexicographic, shorter first on a common prefix). Star i is
// read by index: Head, NumLeaves, AppendLeaves and Hosts.
//
// A star of k > 1 leaves extends its parent, the star of its first k−1
// leaves, by its last leaf, and the parent is an earlier star of the
// table; so one fixed-size record per star (head rank, parent index,
// last-leaf rank and run, leaf count, host-list end) holds the leaves as
// the last leaves along the parent chain. All host lists sit in one array
// in star order, star i's ending where star i+1's begins. Offsets are
// int32: a Stage I whose host lists would pass 2^31−1 entries fails with
// an error. Every star has at least one host, so the star count stays
// below that bound too.
type Stars struct {
	labels []graph.Label // rank -> label: the host's sorted distinct labels
	recs   []starRec
	hosts  []graph.V
}

// starRec is one star of a Stars table. Ranks index Stars.labels.
type starRec struct {
	head    int32 // head label rank
	parent  int32 // table index of the parent star; -1 for a single leaf
	leaf    int32 // last leaf's label rank
	run     int32 // how many leaves equal the last one, itself included
	leaves  int32 // leaf count
	hostEnd int32 // end of the star's host list in Stars.hosts
}

// maxTableHosts is the star table's offset bound, and errTableFull the
// error of a Stage I that would pass it.
const maxTableHosts = math.MaxInt32

var errTableFull = errors.New("spider: star table exceeds 2^31-1 host entries")

// Len returns the number of stars in the table.
func (t *Stars) Len() int { return len(t.recs) }

// Head returns star i's head label.
func (t *Stars) Head(i int) graph.Label { return t.labels[t.recs[i].head] }

// NumLeaves returns star i's leaf count, its size in edges.
func (t *Stars) NumLeaves(i int) int { return int(t.recs[i].leaves) }

// AppendLeaves appends star i's sorted leaf labels to dst, read off its
// parent chain.
func (t *Stars) AppendLeaves(dst []graph.Label, i int) []graph.Label {
	lo := len(dst)
	dst = slices.Grow(dst, int(t.recs[i].leaves))
	dst = dst[:lo+int(t.recs[i].leaves)]
	for j := len(dst) - 1; j >= lo; j-- {
		dst[j] = t.labels[t.recs[i].leaf]
		i = int(t.recs[i].parent)
	}
	return dst
}

// Hosts returns star i's host head vertices, ascending: the vertices
// whose neighborhoods hold its leaf multiset. Its length is the star's
// head-count support, which is anti-monotone in the leaf multiset. The
// slice is the table's own; it must not be modified.
func (t *Stars) Hosts(i int) []graph.V {
	lo := int32(0)
	if i > 0 {
		lo = t.recs[i-1].hostEnd
	}
	hi := t.recs[i].hostEnd
	return t.hosts[lo:hi:hi]
}

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
	// MaxSpiders keeps the first MaxSpiders stars in table order and stops
	// building there (0 = unlimited); scale-free graphs can produce
	// millions (Fig. 17).
	MaxSpiders int
	// Workers parallelizes Stage I: 0/1 sequential, > 1 that many
	// goroutines, < 0 GOMAXPROCS. The level-1 scan partitions head
	// vertices across workers (contiguous chunks merged in chunk order)
	// and level expansion shards parent stars (outputs reduced in frontier
	// order), so the star table is identical across settings.
	Workers int
}

// MineStarsContext enumerates all frequent stars of g level-wise.
//
// Level 1 counts single-leaf stars from the edge list. Level k+1 extends
// each frequent star by one leaf label >= its last leaf (canonical
// generation order, no duplicates), re-verifying hosts. Hosts are carried
// level to level so each extension only scans its parent's host list.
//
// The table holds the stars in the order the Stars doc gives. Level 1 is
// sorted; no later level needs a sort, because each parent's extensions
// come out in ascending new-leaf order with the parent's leaves as a
// prefix, concatenated in parent order. MaxSpiders keeps a prefix: each
// level's frontier is expanded in order, in blocks of expandBlock stars,
// and building stops inside the block that fills the table, so at most
// one block's extensions are built beyond the cap. The seed draw indexes
// the stars in this order, so it is part of every result.
//
// Cancellation is observed between blocks and inside each block's
// sharded expansion; on ctx expiry the stars of every *completed* level
// are returned alongside ctx.Err() — levels commit atomically, so the
// partial table is deterministic for a cancellation observed at any given
// level.
//
// Each call runs on a throwaway StarMiner, and the returned table is
// caller-owned; it keeps none of the miner's scratch alive. Loops that
// mine repeatedly should hold a StarMiner and call its Mine method to
// reuse the table and the scratch (minding its ownership contract).
func MineStarsContext(ctx context.Context, g *graph.Graph, opt Options) (*Stars, error) {
	var sm StarMiner
	stars, err := sm.Mine(ctx, g, opt)
	out := *stars
	return &out, err
}
