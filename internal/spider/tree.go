package spider

import (
	"cmp"
	"context"
	"slices"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// TreeNode is a rooted label tree describing an r-spider for r >= 1: the
// root is the spider head; children at depth d are vertices at distance d
// from the head. Children are kept sorted by Key so equal trees share a
// canonical key. The trees MineTreesContext returns carry their keys,
// computed once when each node was built, and must not be modified.
type TreeNode struct {
	Label    graph.Label
	Children []*TreeNode

	key string // set by newTreeNode; empty means Key computes it
}

// newTreeNode builds a node for the miner, keyed once from its
// children's keys; it shares kids and must never change afterwards.
func newTreeNode(l graph.Label, kids []*TreeNode) *TreeNode {
	n := &TreeNode{Label: l, Children: kids}
	size := 9 // the parentheses and the widest label, "-zik0zk"
	for _, c := range kids {
		size += len(c.Key())
	}
	var b strings.Builder
	b.Grow(size)
	n.writeKey(&b)
	n.key = b.String()
	return n
}

// Key returns the canonical string key of the tree.
func (t *TreeNode) Key() string {
	if t.key != "" {
		return t.key
	}
	var b strings.Builder
	t.writeKey(&b)
	return b.String()
}

func (t *TreeNode) writeKey(b *strings.Builder) {
	if t.key != "" {
		b.WriteString(t.key)
		return
	}
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
	// leaves holds one shared leaf node per host label, in label order:
	// the children extendTree may add.
	leaves := make([]*TreeNode, 0, len(byLabel))
	for l := range byLabel {
		leaves = append(leaves, newTreeNode(l, nil))
	}
	slices.SortFunc(leaves, func(a, b *TreeNode) int { return cmp.Compare(a.Label, b.Label) })
	var frontier []*MinedTree
	for _, leaf := range leaves {
		if hosts := byLabel[leaf.Label]; len(hosts) >= sigma {
			frontier = append(frontier, &MinedTree{Tree: leaf, Hosts: hosts})
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
	done := ctx.Done()
	for len(frontier) > 0 && ctxErr == nil {
		if opt.MaxSpiders > 0 && len(all) >= opt.MaxSpiders {
			break
		}
		var next []*MinedTree
		for _, mt := range frontier {
			if err := poll(ctx, done); err != nil {
				ctxErr = err
				break
			}
			for _, cand := range extendTree(mt.Tree, opt.Radius, opt.MaxFanout, leaves) {
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

// cmpKeys orders trees by canonical key.
func cmpKeys(a, b *TreeNode) int { return strings.Compare(a.Key(), b.Key()) }

func sortTrees(ts []*MinedTree) {
	slices.SortFunc(ts, func(a, b *MinedTree) int { return cmpKeys(a.Tree, b.Tree) })
}

// extendTree returns all trees obtained by adding one of the leaves
// (one per label, in label order) as a child of any node at depth <
// maxDepth, respecting the fanout cap. To avoid generating the same
// tree multiple ways, a child may only be appended if its key is >= the
// last sibling's key. Every node it builds comes from newTreeNode.
func extendTree(t *TreeNode, maxDepth, maxFanout int, leaves []*TreeNode) []*TreeNode {
	var out []*TreeNode
	var rec func(n *TreeNode, depth int, rebuild func(*TreeNode) *TreeNode)
	rec = func(n *TreeNode, depth int, rebuild func(*TreeNode) *TreeNode) {
		if k := len(n.Children); depth < maxDepth && (maxFanout <= 0 || k < maxFanout) {
			for _, leaf := range leaves {
				if k > 0 && leaf.Key() < n.Children[k-1].Key() {
					continue
				}
				out = append(out, rebuild(newTreeNode(n.Label, append(n.Children[:k:k], leaf))))
			}
		}
		for i, c := range n.Children {
			rec(c, depth+1, func(newC *TreeNode) *TreeNode {
				kids := slices.Clone(n.Children)
				kids[i] = newC
				slices.SortStableFunc(kids, cmpKeys)
				return rebuild(newTreeNode(n.Label, kids))
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
	var used [8]graph.V
	return assignChildren(g, t.Children, v, parent, used[:0])
}

// assignChildren backtracks kids onto distinct neighbors of v other than
// parent and the neighbors already in used (one per earlier sibling),
// each hosting its subtree.
func assignChildren(g *graph.Graph, kids []*TreeNode, v, parent graph.V, used []graph.V) bool {
	if len(kids) == 0 {
		return true
	}
	for _, w := range g.Neighbors(v) {
		if w == parent || slices.Contains(used, w) || !canHostFrom(g, kids[0], w, v) {
			continue
		}
		if assignChildren(g, kids[1:], v, parent, append(used, w)) {
			return true
		}
	}
	return false
}
