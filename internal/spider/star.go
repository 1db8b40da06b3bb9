// Package spider implements Stage I of SpiderMine: mining all frequent
// r-spiders of the host graph, the seed-count computation M(K, ε, Vmin) of
// Lemma 2, and the random seed draw.
//
// For the default radius r=1 a spider is a star: a head label plus a
// multiset of leaf labels. Stars are enumerated level-wise over the leaf
// multiset with apriori pruning on head-count support, on one goroutine,
// each star written straight into one flat table without pointers
// (Stars): a fixed-size int32 record per star, whose leaves are read off
// its parent chain, and all host lists in one array. With a spider cap,
// Stage I stops building once the table is full. Stage I depends only on
// the host and its options, so MineStarsShared hands later mines of the
// same host object the table an earlier one mined, while that table is
// still alive; it holds hosts and tables weakly and retains nothing.
// Deeper spiders (r >= 2) are rooted label trees mined by composing stars
// (see tree.go); their cost grows exponentially in r, matching Appendix
// C(3).
package spider

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"weak"

	"repro/internal/graph"
)

// Star is a radius-1 spider: Head is the head vertex label; Leaves is the
// sorted multiset of leaf labels.
type Star struct {
	Head   graph.Label
	Leaves []graph.Label
}

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
//
// A table from MineStarsContext or MineStarsShared is read-only, and
// MineStarsShared hands one table to every mine of its host that asks
// while it is alive, so concurrent mines read it at once. Its readers
// (Len, Head, NumLeaves, AppendLeaves, Hosts) and everything built on
// them (Seeder.Draw, Materializer) only read; nothing may write to it.
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
	// Workers is read by nothing: Stage I runs on the caller's
	// goroutine. The field stays only because the benchmark module sets
	// it.
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
// put in order by two counting passes; no later level needs ordering,
// because each parent's extensions come out in ascending new-leaf order
// with the parent's leaves as a prefix, concatenated in parent order.
// MaxSpiders keeps a prefix: each level's frontier is expanded in order,
// one star at a time, the star that fills the table is cut there, and no
// later star is expanded, so at most one star's extensions (at most the
// host's distinct-label count) are built beyond the cap. The seed draw
// indexes the stars in this order, so it is part of every result.
//
// Stage I runs on the caller's goroutine. Cancellation is polled before
// the level-1 scan, before each of the two passes that order level 1,
// and before every frontier star's expansion; on ctx expiry the stars of
// every *completed* level are returned alongside ctx.Err() — levels
// commit atomically, so the partial table is deterministic for a
// cancellation observed at any given level.
//
// Each call runs on a throwaway StarMiner, and the returned table is
// caller-owned; it keeps none of the miner's scratch alive, and nothing
// writes to it after the call. Loops that mine repeatedly should hold a
// StarMiner and call its Mine method to reuse the table and the scratch
// (minding its ownership contract), or call MineStarsShared, which hands
// out a table already mined for the same host while one is still alive.
func MineStarsContext(ctx context.Context, g *graph.Graph, opt Options) (*Stars, error) {
	var sm StarMiner
	stars, err := sm.Mine(ctx, g, opt)
	out := *stars
	return &out, err
}

// sharedKey names a Stage I table: the host object and the options
// Stage I reads (Radius and Workers are read by nothing). The host is
// held weakly, so a key keeps no host alive.
type sharedKey struct {
	host                         weak.Pointer[graph.Graph]
	sigma, maxLeaves, maxSpiders int
}

// sharedTables maps each key to the last table MineStarsShared recorded
// for it, held weakly: an entry keeps neither its host nor its table
// alive. It is package state, like a sync.Pool, so that mines of one host
// from any caller (façade calls, server jobs) find each other's tables;
// what it hands out is byte-identical to what a miss would mine.
// sharedMu guards it.
var (
	sharedMu     sync.Mutex
	sharedTables = map[sharedKey]weak.Pointer[Stars]{}
)

// MineStarsShared returns the Stage I table of g under opt. If a table
// mined earlier for the same host object under the same MinSupport,
// MaxLeaves and MaxSpiders is still alive (some mine still holds it, or
// no garbage collection has reclaimed it yet), that table is returned;
// otherwise the table comes from MineStarsContext. A shared table is
// byte-identical to a fresh one, so every result built on it is too.
//
// The host is keyed by its pointer: a built graph is immutable
// (graph.Builder.Build returns a fresh *Graph every time), so one object
// always has one table per options. The one graph rebuilt in place,
// graph.SubgraphScratch's, must never be passed here. Options are keyed
// as given: values Stage I treats alike (σ 0 and 1, MaxLeaves 0 and the
// host's max degree) are keyed apart, which costs only a miss.
//
// Nothing is retained for reuse: the table map holds hosts and tables
// weakly, and an entry whose host or table has died is removed on the
// next insert, so it stays bounded by the live tables. A table is
// recorded only when Stage I finished without an error, so a table cut by
// ctx is never handed out. Two concurrent misses on one key both mine;
// the last to finish is recorded. A shared table is read by many mines at
// once, so nothing may write to it (see Stars).
func MineStarsShared(ctx context.Context, g *graph.Graph, opt Options) (*Stars, error) {
	k := sharedKey{weak.Make(g), opt.MinSupport, opt.MaxLeaves, opt.MaxSpiders}
	sharedMu.Lock()
	t := sharedTables[k].Value()
	sharedMu.Unlock()
	if t != nil {
		return t, nil
	}
	t, err := MineStarsContext(ctx, g, opt)
	if err != nil {
		return t, err
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	for old, w := range sharedTables {
		if old.host.Value() == nil || w.Value() == nil {
			delete(sharedTables, old)
		}
	}
	sharedTables[k] = weak.Make(t)
	return t, nil
}
