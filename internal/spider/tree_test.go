package spider

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestTreeNodeKeyAndSize(t *testing.T) {
	leaf := &TreeNode{Label: 2}
	root := &TreeNode{Label: 1, Children: []*TreeNode{leaf, {Label: 3}}}
	if root.Size() != 2 {
		t.Fatalf("size %d", root.Size())
	}
	if root.Depth() != 1 {
		t.Fatalf("depth %d", root.Depth())
	}
	deep := &TreeNode{Label: 0, Children: []*TreeNode{{Label: 1, Children: []*TreeNode{{Label: 2}}}}}
	if deep.Depth() != 2 {
		t.Fatalf("deep depth %d", deep.Depth())
	}
	// keys distinguish structure
	a := &TreeNode{Label: 1, Children: []*TreeNode{{Label: 2}, {Label: 2}}}
	b := &TreeNode{Label: 1, Children: []*TreeNode{{Label: 2, Children: []*TreeNode{{Label: 2}}}}}
	if a.Key() == b.Key() {
		t.Fatal("distinct trees share key")
	}
	// Keys of non-negative labels are base 36; a negative label keeps its
	// sign, so no two labels share a key.
	if k := root.Key(); k != "(1(2)(3))" {
		t.Fatalf("key %q", k)
	}
	labels := []graph.Label{0, 1, 35, 36, math.MaxInt32, -1, -2, -36, math.MinInt32}
	keys := map[string]graph.Label{}
	for _, l := range labels {
		k := (&TreeNode{Label: l}).Key()
		if prev, dup := keys[k]; dup {
			t.Fatalf("labels %d and %d share key %q", prev, l, k)
		}
		keys[k] = l
	}
	if k := (&TreeNode{Label: math.MaxInt32}).Key(); k != "(zik0zj)" {
		t.Fatalf("MaxInt32 key %q", k)
	}
	neg := &TreeNode{Label: -1, Children: []*TreeNode{{Label: -2}, {Label: math.MinInt32}}}
	pos := &TreeNode{Label: 1, Children: []*TreeNode{{Label: 2}, {Label: 0}}}
	if neg.Key() == pos.Key() || neg.Key() == (&TreeNode{Label: -1}).Key() {
		t.Fatalf("negative-label tree key %q collides", neg.Key())
	}
}

// shiftTree returns t with every label moved by d and the children
// re-sorted by key, the canonical form MineTrees reports.
func shiftTree(t *TreeNode, d graph.Label) *TreeNode {
	n := &TreeNode{Label: t.Label + d}
	for _, c := range t.Children {
		n.Children = append(n.Children, shiftTree(c, d))
	}
	slices.SortFunc(n.Children, func(a, b *TreeNode) int { return strings.Compare(a.Key(), b.Key()) })
	return n
}

// TestMineTreesNegativeLabels: labels are opaque, so mining a host whose
// labels are all shifted by -1000 finds exactly the unshifted host's
// trees, shifted, with the same hosts.
func TestMineTreesNegativeLabels(t *testing.T) {
	g := gen.ErdosRenyi(40, 3, 3, rand.New(rand.NewSource(7)))
	opt := TreeOptions{MinSupport: 2, Radius: 2, MaxFanout: 2}
	want := mineTrees(g, opt)
	got := mineTrees(relabeled(g, func(l graph.Label) graph.Label { return l - 1000 }), opt)
	if len(got) != len(want) {
		t.Fatalf("shifted host: %d trees, unshifted %d", len(got), len(want))
	}
	hosts := make(map[string][]graph.V, len(got))
	for _, mt := range got {
		hosts[mt.Tree.Key()] = mt.Hosts
	}
	for _, mt := range want {
		key := shiftTree(mt.Tree, -1000).Key()
		if h, ok := hosts[key]; !ok || !slices.Equal(h, mt.Hosts) {
			t.Fatalf("tree %s (shifted %s) hosts %v: shifted host has %v (found %v)", mt.Tree.Key(), key, mt.Hosts, h, ok)
		}
	}
}

func TestTreeGraph(t *testing.T) {
	root := &TreeNode{Label: 1, Children: []*TreeNode{{Label: 2}, {Label: 3, Children: []*TreeNode{{Label: 4}}}}}
	g := root.Graph()
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("tree graph: %v", g)
	}
	if g.Label(0) != 1 {
		t.Fatal("root must be vertex 0")
	}
}

func TestCanHost(t *testing.T) {
	// host: path 1-2-3
	g := graph.FromEdges([]graph.Label{1, 2, 3},
		[]graph.Edge{{U: 0, W: 1}, {U: 1, W: 2}})
	tr := &TreeNode{Label: 2, Children: []*TreeNode{{Label: 1}, {Label: 3}}}
	if !CanHost(g, tr, 1) {
		t.Fatal("center must host 2(1)(3)")
	}
	if CanHost(g, tr, 0) {
		t.Fatal("end must not host a label-2 root")
	}
	// needs two distinct children with same label
	tr2 := &TreeNode{Label: 2, Children: []*TreeNode{{Label: 1}, {Label: 1}}}
	if CanHost(g, tr2, 1) {
		t.Fatal("only one label-1 neighbor exists")
	}
}

func TestCanHostDoesNotReuseParent(t *testing.T) {
	// host: edge 1-2. tree: 1 -> 2 -> 1 requires a second label-1 vertex
	// beyond the parent.
	g := graph.FromEdges([]graph.Label{1, 2}, []graph.Edge{{U: 0, W: 1}})
	tr := &TreeNode{Label: 1, Children: []*TreeNode{
		{Label: 2, Children: []*TreeNode{{Label: 1}}},
	}}
	if CanHost(g, tr, 0) {
		t.Fatal("tree must not walk back through its parent")
	}
}

func TestMineTreesDepth1MatchesStars(t *testing.T) {
	g := twoStarsGraph()
	trees := mineTrees(g, TreeOptions{MinSupport: 2, Radius: 1})
	// The tree 9(1)(1)(2) must be found with 2 hosts.
	found := false
	for _, mt := range trees {
		if mt.Tree.Depth() <= 1 && mt.Tree.Size() == 3 && mt.Tree.Label == 9 {
			if mt.Support() == 2 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("depth-1 tree spider 9(1)(1)(2) not mined")
	}
	for _, mt := range trees {
		if mt.Tree.Depth() > 1 {
			t.Fatalf("radius 1 exceeded: %s", mt.Tree.Key())
		}
		if mt.Support() < 2 {
			t.Fatalf("infrequent tree returned: %s", mt.Tree.Key())
		}
	}
}

func TestMineTreesDeeperFindsMore(t *testing.T) {
	g := twoStarsGraph()
	t1 := mineTrees(g, TreeOptions{MinSupport: 2, Radius: 1, MaxFanout: 3})
	t2 := mineTrees(g, TreeOptions{MinSupport: 2, Radius: 2, MaxFanout: 3})
	if len(t2) <= len(t1) {
		t.Fatalf("radius 2 should find more spiders: %d vs %d", len(t2), len(t1))
	}
}

func TestMineTreesMaxSpiders(t *testing.T) {
	g := twoStarsGraph()
	trees := mineTrees(g, TreeOptions{MinSupport: 1, Radius: 2, MaxFanout: 2, MaxSpiders: 5})
	if len(trees) > 5 {
		t.Fatalf("MaxSpiders violated: %d", len(trees))
	}
}

// refKey is TreeNode.Key without the cached keys: the string rebuilt
// from the labels on every call, as MineTreesContext did before it keyed
// each node once.
func refKey(t *TreeNode) string {
	k := "(" + strconv.FormatInt(int64(t.Label), 36)
	for _, c := range t.Children {
		k += refKey(c)
	}
	return k + ")"
}

// refCanHost is CanHost with a used-neighbor map, as it was written
// before the backtracking moved onto a stack slice.
func refCanHost(g *graph.Graph, t *TreeNode, v, parent graph.V) bool {
	if g.Label(v) != t.Label {
		return false
	}
	used := map[graph.V]bool{}
	var assign func(ci int) bool
	assign = func(ci int) bool {
		if ci == len(t.Children) {
			return true
		}
		for _, w := range g.Neighbors(v) {
			if w == parent || used[w] || !refCanHost(g, t.Children[ci], w, v) {
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

// mineTreesReference is MineTreesContext with every key rebuilt on
// demand, the label list re-sorted per frontier tree and plain
// struct-literal nodes: the oracle the keyed enumeration must reproduce
// tree for tree, in order, with the same hosts.
func mineTreesReference(g *graph.Graph, opt TreeOptions) []*MinedTree {
	byLabel := map[graph.Label][]graph.V{}
	for v := 0; v < g.N(); v++ {
		byLabel[g.Label(graph.V(v))] = append(byLabel[g.Label(graph.V(v))], graph.V(v))
	}
	sortRef := func(ts []*MinedTree) {
		sort.Slice(ts, func(i, j int) bool { return refKey(ts[i].Tree) < refKey(ts[j].Tree) })
	}
	var frontier []*MinedTree
	for l, hosts := range byLabel {
		if len(hosts) >= opt.MinSupport {
			frontier = append(frontier, &MinedTree{Tree: &TreeNode{Label: l}, Hosts: hosts})
		}
	}
	sortRef(frontier)
	all := slices.Clone(frontier)
	seen := map[string]bool{}
	for _, mt := range all {
		seen[refKey(mt.Tree)] = true
	}
	for len(frontier) > 0 && len(all) < opt.MaxSpiders {
		var next []*MinedTree
		for _, mt := range frontier {
			var labels []graph.Label
			for l := range byLabel {
				labels = append(labels, l)
			}
			slices.Sort(labels)
			var cands []*TreeNode
			var rec func(n *TreeNode, depth int, rebuild func(*TreeNode) *TreeNode)
			rec = func(n *TreeNode, depth int, rebuild func(*TreeNode) *TreeNode) {
				if depth < opt.Radius && len(n.Children) < opt.MaxFanout {
					for _, l := range labels {
						child := &TreeNode{Label: l}
						if len(n.Children) > 0 && refKey(child) < refKey(n.Children[len(n.Children)-1]) {
							continue
						}
						kids := append(slices.Clone(n.Children), child)
						cands = append(cands, rebuild(&TreeNode{Label: n.Label, Children: kids}))
					}
				}
				for i, c := range n.Children {
					rec(c, depth+1, func(newC *TreeNode) *TreeNode {
						kids := slices.Clone(n.Children)
						kids[i] = newC
						sort.Slice(kids, func(a, b int) bool { return refKey(kids[a]) < refKey(kids[b]) })
						return rebuild(&TreeNode{Label: n.Label, Children: kids})
					})
				}
			}
			rec(mt.Tree, 0, func(nt *TreeNode) *TreeNode { return nt })
			for _, cand := range cands {
				if key := refKey(cand); !seen[key] {
					seen[key] = true
					var hosts []graph.V
					for _, v := range mt.Hosts {
						if refCanHost(g, cand, v, -1) {
							hosts = append(hosts, v)
						}
					}
					if len(hosts) >= opt.MinSupport {
						next = append(next, &MinedTree{Tree: cand, Hosts: hosts})
					}
				}
			}
		}
		sortRef(next)
		all = append(all, next...)
		frontier = next
	}
	if len(all) > opt.MaxSpiders {
		all = all[:opt.MaxSpiders]
	}
	return all
}

// TestMineTreesMatchesReference: keying each node once, hoisting the
// label list and the map-free host check leave MineTreesContext's output
// unchanged: the same trees (by the reference's rebuilt keys), in the
// same order, with the same hosts, at radius 2 and 3 and on a host
// with negative labels.
func TestMineTreesMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		labels int
		shift  graph.Label
		opt    TreeOptions
	}{
		{1, 12, 0, TreeOptions{MinSupport: 2, Radius: 2, MaxFanout: 2, MaxSpiders: 3000}},
		{2, 6, 0, TreeOptions{MinSupport: 3, Radius: 2, MaxFanout: 3, MaxSpiders: 3000}},
		{3, 40, 0, TreeOptions{MinSupport: 2, Radius: 3, MaxFanout: 2, MaxSpiders: 3000}},
		{4, 12, -40, TreeOptions{MinSupport: 2, Radius: 2, MaxFanout: 2, MaxSpiders: 3000}},
	} {
		g := gen.ErdosRenyi(60, 3, tc.labels, rand.New(rand.NewSource(tc.seed)))
		g = relabeled(g, func(l graph.Label) graph.Label { return l + tc.shift })
		got, want := mineTrees(g, tc.opt), mineTreesReference(g, tc.opt)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d trees, reference %d", tc.seed, len(got), len(want))
		}
		for i := range got {
			if refKey(got[i].Tree) != refKey(want[i].Tree) || got[i].Tree.Key() != refKey(want[i].Tree) ||
				!slices.Equal(got[i].Hosts, want[i].Hosts) {
				t.Fatalf("seed %d tree %d: %s (key %s) hosts %v, reference %s hosts %v", tc.seed, i,
					refKey(got[i].Tree), got[i].Tree.Key(), got[i].Hosts, refKey(want[i].Tree), want[i].Hosts)
			}
		}
	}
}

// mineTrees runs MineTreesContext under a context that never fires.
func mineTrees(g *graph.Graph, opt TreeOptions) []*MinedTree {
	trees, _ := MineTreesContext(context.Background(), g, opt)
	return trees
}
