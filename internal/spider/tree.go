package spider

import (
	"context"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// TreeNode is a rooted label tree describing an r-spider for r >= 1: the
// root is the spider head; children at depth d are vertices at distance d
// from the head. Children are kept sorted by Key so equal trees share a
// canonical key.
type TreeNode struct {
	Label    graph.Label
	Children []*TreeNode
}

// Key returns the canonical string key of the tree.
func (t *TreeNode) Key() string {
	var b strings.Builder
	t.writeKey(&b)
	return b.String()
}

func (t *TreeNode) writeKey(b *strings.Builder) {
	b.WriteByte('(')
	writeLabel(b, t.Label)
	for _, c := range t.Children {
		c.writeKey(b)
	}
	b.WriteByte(')')
}

// writeLabel writes l in base 36, a negative one with a leading '-', so
// no two labels share a key.
func writeLabel(b *strings.Builder, l graph.Label) {
	var tmp [8]byte
	b.Write(strconv.AppendInt(tmp[:0], int64(l), 36))
}

// Size returns the number of edges of the tree spider.
func (t *TreeNode) Size() int {
	n := 0
	for _, c := range t.Children {
		n += 1 + c.Size()
	}
	return n
}

// Depth returns the tree depth (the spider radius).
func (t *TreeNode) Depth() int {
	d := 0
	for _, c := range t.Children {
		if cd := c.Depth() + 1; cd > d {
			d = cd
		}
	}
	return d
}

// Graph materializes the tree as a pattern graph with the head at vertex 0.
func (t *TreeNode) Graph() *graph.Graph {
	b := graph.NewBuilder(8, 8)
	var add func(n *TreeNode) graph.V
	add = func(n *TreeNode) graph.V {
		v := b.AddVertex(n.Label)
		for _, c := range n.Children {
			w := add(c)
			b.AddEdge(v, w)
		}
		return v
	}
	add(t)
	return b.Build()
}

// MinedTree couples a tree spider with its hosting head vertices.
type MinedTree struct {
	Tree  *TreeNode
	Hosts []graph.V
}

// Support returns the head-count support.
func (m *MinedTree) Support() int { return len(m.Hosts) }

// TreeOptions configures r-spider tree mining.
type TreeOptions struct {
	MinSupport int
	Radius     int
	// MaxFanout caps children per node (0 = unlimited). Appendix C(3)
	// measures unbounded growth; tests use small fanouts.
	MaxFanout int
	// MaxSpiders aborts past this many frequent spiders (0 = unlimited).
	MaxSpiders int
}

// MineTrees enumerates frequent tree spiders without cancellation; see
// MineTreesContext.
func MineTrees(g *graph.Graph, opt TreeOptions) []*MinedTree {
	trees, _ := MineTreesContext(context.Background(), g, opt)
	return trees
}

// MineTreesContext enumerates frequent tree spiders of the given radius,
// level-wise in tree size. Depth-r trees are generated by extending
// depth-(r-1) frontier leaves with frequent child labels; support is
// verified by anchored matching (CanHost) against every candidate head.
//
// The enumeration cost grows exponentially with radius, reproducing the
// Appendix C(3) observation (r=3 already ~100× r=1; r=4 exhausts memory
// in the paper) — which is exactly why cancellation is observed per
// frontier tree: one tree's host verification is the bounded unit of
// work. A cancelled run returns the frequent trees confirmed so far with
// ctx.Err().
func MineTreesContext(ctx context.Context, g *graph.Graph, opt TreeOptions) ([]*MinedTree, error) {
	sigma := opt.MinSupport
	if sigma < 1 {
		sigma = 1
	}
	if opt.Radius < 1 {
		opt.Radius = 1
	}

	// Depth-0 trees: frequent labels.
	byLabel := make(map[graph.Label][]graph.V)
	for v := 0; v < g.N(); v++ {
		byLabel[g.Label(graph.V(v))] = append(byLabel[g.Label(graph.V(v))], graph.V(v))
	}
	var frontier []*MinedTree
	for l, hosts := range byLabel {
		if len(hosts) >= sigma {
			frontier = append(frontier, &MinedTree{Tree: &TreeNode{Label: l}, Hosts: hosts})
		}
	}
	sortTrees(frontier)

	var all []*MinedTree
	all = append(all, frontier...)
	// Grow by single-node additions at any depth < radius. Each round adds
	// one node; rounds continue until no new frequent tree appears.
	seen := make(map[string]struct{})
	for _, t := range all {
		seen[t.Tree.Key()] = struct{}{}
	}
	var ctxErr error
	for len(frontier) > 0 && ctxErr == nil {
		if opt.MaxSpiders > 0 && len(all) >= opt.MaxSpiders {
			break
		}
		var next []*MinedTree
		for _, mt := range frontier {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				break
			}
			for _, cand := range extendTree(mt.Tree, opt.Radius, opt.MaxFanout, labelsOf(byLabel)) {
				key := cand.Key()
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				var hosts []graph.V
				for _, v := range mt.Hosts {
					if CanHost(g, cand, v) {
						hosts = append(hosts, v)
					}
				}
				if len(hosts) >= sigma {
					next = append(next, &MinedTree{Tree: cand, Hosts: hosts})
				}
			}
		}
		sortTrees(next)
		all = append(all, next...)
		frontier = next
	}
	if opt.MaxSpiders > 0 && len(all) > opt.MaxSpiders {
		all = all[:opt.MaxSpiders]
	}
	return all, ctxErr
}

func labelsOf(byLabel map[graph.Label][]graph.V) []graph.Label {
	ls := make([]graph.Label, 0, len(byLabel))
	for l := range byLabel {
		ls = append(ls, l)
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	return ls
}

func sortTrees(ts []*MinedTree) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Tree.Key() < ts[j].Tree.Key() })
}

// extendTree returns all trees obtained by adding one child (with any
// label) to any node at depth < maxDepth, respecting the fanout cap.
// To avoid generating the same tree multiple ways, a child may only be
// appended if its key is >= the last sibling's key.
func extendTree(t *TreeNode, maxDepth, maxFanout int, labels []graph.Label) []*TreeNode {
	var out []*TreeNode
	var rec func(n *TreeNode, depth int, rebuild func(*TreeNode) *TreeNode)
	rec = func(n *TreeNode, depth int, rebuild func(*TreeNode) *TreeNode) {
		if depth < maxDepth && (maxFanout <= 0 || len(n.Children) < maxFanout) {
			for _, l := range labels {
				child := &TreeNode{Label: l}
				if len(n.Children) > 0 && child.Key() < n.Children[len(n.Children)-1].Key() {
					continue
				}
				nn := &TreeNode{Label: n.Label, Children: append(append([]*TreeNode(nil), n.Children...), child)}
				out = append(out, rebuild(nn))
			}
		}
		for i, c := range n.Children {
			i := i
			rec(c, depth+1, func(newC *TreeNode) *TreeNode {
				kids := append([]*TreeNode(nil), n.Children...)
				kids[i] = newC
				sort.Slice(kids, func(a, b int) bool { return kids[a].Key() < kids[b].Key() })
				return rebuild(&TreeNode{Label: n.Label, Children: kids})
			})
		}
	}
	rec(t, 0, func(nt *TreeNode) *TreeNode { return nt })
	return out
}

// CanHost reports whether vertex v of g can host the tree spider: label
// match at the root and an injective assignment of children to distinct
// neighbors each recursively hosting its subtree. Distinctness is enforced
// among siblings and against the parent; vertices on different branches
// may coincide (a documented approximation — spiders are small and the
// growth stage re-verifies embeddings exactly).
func CanHost(g *graph.Graph, t *TreeNode, v graph.V) bool {
	return canHostFrom(g, t, v, -1)
}

func canHostFrom(g *graph.Graph, t *TreeNode, v graph.V, parent graph.V) bool {
	if g.Label(v) != t.Label {
		return false
	}
	if len(t.Children) == 0 {
		return true
	}
	// Backtracking assignment of children to distinct neighbors.
	nbrs := g.Neighbors(v)
	used := make(map[graph.V]bool, len(t.Children))
	var assign func(ci int) bool
	assign = func(ci int) bool {
		if ci == len(t.Children) {
			return true
		}
		c := t.Children[ci]
		for _, w := range nbrs {
			if w == parent || used[w] {
				continue
			}
			if !canHostFrom(g, c, w, v) {
				continue
			}
			used[w] = true
			if assign(ci + 1) {
				return true
			}
			used[w] = false
		}
		return false
	}
	return assign(0)
}
