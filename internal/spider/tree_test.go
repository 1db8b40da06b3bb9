package spider

import (
	"math"
	"math/rand"
	"slices"
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
	want := MineTrees(g, opt)
	got := MineTrees(relabeled(g, func(l graph.Label) graph.Label { return l - 1000 }), opt)
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
	trees := MineTrees(g, TreeOptions{MinSupport: 2, Radius: 1})
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
	t1 := MineTrees(g, TreeOptions{MinSupport: 2, Radius: 1, MaxFanout: 3})
	t2 := MineTrees(g, TreeOptions{MinSupport: 2, Radius: 2, MaxFanout: 3})
	if len(t2) <= len(t1) {
		t.Fatalf("radius 2 should find more spiders: %d vs %d", len(t2), len(t1))
	}
}

func TestMineTreesMaxSpiders(t *testing.T) {
	g := twoStarsGraph()
	trees := MineTrees(g, TreeOptions{MinSupport: 1, Radius: 2, MaxFanout: 2, MaxSpiders: 5})
	if len(trees) > 5 {
		t.Fatalf("MaxSpiders violated: %d", len(trees))
	}
}
