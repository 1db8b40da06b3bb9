package gen

import (
	"math/rand"

	"repro/internal/graph"
)

// DBLP seniority labels (the paper buckets authors by publication count).
const (
	LabelProlific graph.Label = 0 // "P": >= 50 papers
	LabelSenior   graph.Label = 1 // "S": 20–49
	LabelJunior   graph.Label = 2 // "J": 10–19
	LabelBeginner graph.Label = 3 // "B": 5–9
)

// DBLPConfig sizes the synthetic co-authorship network. Defaults match the
// paper's extracted graph: 6,508 vertices, 24,402 edges, 4 labels.
type DBLPConfig struct {
	Authors     int // default 6508
	Communities int // research communities (default 60)
	// PatternSize and PatternCount control the injected collaborative
	// patterns (the "common collaborative patterns" of Fig. 22/23).
	PatternSize  int // default 16 authors
	PatternCount int // default 8 distinct patterns
	PatternSup   int // embeddings per pattern (default 6 clusters)
	Seed         int64
}

func (c DBLPConfig) withDefaults() DBLPConfig {
	if c.Authors <= 0 {
		c.Authors = 6508
	}
	if c.Communities <= 0 {
		c.Communities = 60
	}
	if c.PatternSize <= 0 {
		c.PatternSize = 16
	}
	if c.PatternCount <= 0 {
		c.PatternCount = 8
	}
	if c.PatternSup <= 0 {
		c.PatternSup = 6
	}
	return c
}

// DBLPLike synthesizes a co-authorship network with the structural
// properties the paper's DBLP extraction exhibits: few labels with a
// seniority-skewed distribution, dense intra-community collaboration,
// sparse cross-community edges, and repeated large collaborative patterns
// whose embeddings cluster on communities. Substitutes for the
// unavailable DBLP dataset in the Fig. 20/22/23 experiments.
func DBLPLike(cfg DBLPConfig) (*graph.Graph, []*graph.Graph) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Authors
	b := graph.NewBuilder(n, n*4)
	// Seniority distribution: few prolific, many beginners.
	for i := 0; i < n; i++ {
		r := rng.Float64()
		switch {
		case r < 0.06:
			b.AddVertex(LabelProlific)
		case r < 0.22:
			b.AddVertex(LabelSenior)
		case r < 0.50:
			b.AddVertex(LabelJunior)
		default:
			b.AddVertex(LabelBeginner)
		}
	}
	// Communities: assign authors round-robin with jitter; wire
	// intra-community edges preferentially around community "anchors"
	// (prolific authors attract collaborations).
	comm := make([]int, n)
	for i := range comm {
		comm[i] = rng.Intn(cfg.Communities)
	}
	members := make([][]graph.V, cfg.Communities)
	for v, c := range comm {
		members[c] = append(members[c], graph.V(v))
	}
	edgeSet := make(map[graph.Edge]struct{})
	addEdge := func(u, w graph.V) {
		if u == w {
			return
		}
		e := graph.NormEdge(u, w)
		if _, dup := edgeSet[e]; dup {
			return
		}
		edgeSet[e] = struct{}{}
		b.AddEdge(u, w)
	}
	for _, ms := range members {
		if len(ms) < 2 {
			continue
		}
		// ~3.4 intra edges per member approximates the paper's 24,402
		// edges over 6,508 authors, concentrated within communities.
		target := len(ms) * 17 / 5
		for t := 0; t < target; t++ {
			u := ms[rng.Intn(len(ms))]
			w := ms[rng.Intn(len(ms))]
			addEdge(u, w)
		}
	}
	// Sparse cross-community collaboration.
	for t := 0; t < n/10; t++ {
		addEdge(graph.V(rng.Intn(n)), graph.V(rng.Intn(n)))
	}
	// Inject collaborative patterns: each pattern's embeddings land on
	// distinct communities (the paper's Fig. 23 observation that a
	// discriminative pattern's embeddings cluster on a researcher group).
	used := make(map[graph.V]bool)
	var pats []*graph.Graph
	for pi := 0; pi < cfg.PatternCount; pi++ {
		p := collaborativePattern(cfg.PatternSize, rng)
		pats = append(pats, p)
		for s := 0; s < cfg.PatternSup; s++ {
			c := rng.Intn(cfg.Communities)
			planted := plantInCommunity(b, p, members[c], used, rng)
			if !planted {
				embedPattern(b, p, used, rng)
			}
		}
	}
	return b.Build(), pats
}

// collaborativePattern builds a plausible research-group motif: a prolific
// hub, senior co-leads connected to the hub and each other, juniors and
// beginners hanging off seniors.
func collaborativePattern(size int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(size, size*2)
	hub := b.AddVertex(LabelProlific)
	var seniors []graph.V
	nSen := 2 + rng.Intn(3)
	for i := 0; i < nSen && b.N() < size; i++ {
		s := b.AddVertex(LabelSenior)
		b.AddEdge(hub, s)
		for _, t := range seniors {
			if rng.Float64() < 0.5 {
				b.AddEdge(s, t)
			}
		}
		seniors = append(seniors, s)
	}
	for b.N() < size {
		var l graph.Label = LabelJunior
		if rng.Float64() < 0.5 {
			l = LabelBeginner
		}
		v := b.AddVertex(l)
		anchor := seniors[rng.Intn(len(seniors))]
		b.AddEdge(v, anchor)
		if rng.Float64() < 0.3 {
			b.AddEdge(v, hub)
		}
	}
	return b.Build()
}

// plantInCommunity embeds p onto unused members of one community; returns
// false if the community is too small.
func plantInCommunity(b *graph.Builder, p *graph.Graph, members []graph.V, used map[graph.V]bool, rng *rand.Rand) bool {
	var free []graph.V
	for _, v := range members {
		if !used[v] {
			free = append(free, v)
		}
	}
	if len(free) < p.N() {
		return false
	}
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	chosen := free[:p.N()]
	for i, v := range chosen {
		b.SetLabel(v, p.Label(graph.V(i)))
		used[v] = true
	}
	for _, e := range p.Edges() {
		b.AddEdge(chosen[e.U], chosen[e.W])
	}
	return true
}

// CallGraphConfig sizes the synthetic software call graph. Defaults match
// the paper's Jeti extraction: 835 nodes, 1,764 edges, 267 class labels,
// average degree 2.13, max degree 69.
type CallGraphConfig struct {
	Methods int // default 835
	Classes int // default 267
	// MotifSize / MotifCount / MotifSup control repeated library-usage
	// motifs (e.g. the GregorianCalendar/Calendar/SimpleDateFormat pattern
	// of Fig. 24).
	MotifSize  int // methods per motif (default 12)
	MotifCount int // distinct motifs (default 5)
	MotifSup   int // occurrences each (default 12)
	Seed       int64
}

func (c CallGraphConfig) withDefaults() CallGraphConfig {
	if c.Methods <= 0 {
		c.Methods = 835
	}
	if c.Classes <= 0 {
		c.Classes = 267
	}
	if c.MotifSize <= 0 {
		c.MotifSize = 12
	}
	if c.MotifCount <= 0 {
		c.MotifCount = 5
	}
	if c.MotifSup <= 0 {
		c.MotifSup = 12
	}
	return c
}

// CallGraphLike synthesizes a method-call graph labeled by declaring
// class: most methods call within their class neighborhood, a few API hub
// methods have very high in-degree, and library-usage motifs repeat across
// the codebase. Substitutes for the unavailable Jeti dataset (Fig. 21/24).
func CallGraphLike(cfg CallGraphConfig) (*graph.Graph, []*graph.Graph) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Methods
	b := graph.NewBuilder(n, n*3)
	// Methods per class follow a skewed distribution; class labels are
	// assigned in runs so same-class methods are id-adjacent.
	for i := 0; i < n; {
		cls := graph.Label(rng.Intn(cfg.Classes))
		run := 1 + rng.Intn(6)
		for j := 0; j < run && i < n; j++ {
			b.AddVertex(cls)
			i++
		}
	}
	edgeSet := make(map[graph.Edge]struct{})
	addEdge := func(u, w graph.V) {
		if u == w {
			return
		}
		e := graph.NormEdge(u, w)
		if _, dup := edgeSet[e]; dup {
			return
		}
		edgeSet[e] = struct{}{}
		b.AddEdge(u, w)
	}
	// Intra-class calls: mostly local (id-adjacent) calls.
	for v := 0; v < n-1; v++ {
		if rng.Float64() < 0.55 {
			addEdge(graph.V(v), graph.V(v+1+rng.Intn(3)%max(1, n-v-1)))
		}
	}
	// API hubs: a handful of utility methods everyone calls (max degree
	// ~69 in Jeti).
	nHubs := 6
	for h := 0; h < nHubs; h++ {
		hub := graph.V(rng.Intn(n))
		fan := 20 + rng.Intn(50)
		for f := 0; f < fan; f++ {
			addEdge(hub, graph.V(rng.Intn(n)))
		}
	}
	// Background calls.
	for t := 0; t < n/3; t++ {
		addEdge(graph.V(rng.Intn(n)), graph.V(rng.Intn(n)))
	}
	// Library-usage motifs.
	used := make(map[graph.V]bool)
	var motifs []*graph.Graph
	for mi := 0; mi < cfg.MotifCount; mi++ {
		m := libraryMotif(cfg.MotifSize, cfg.Classes, rng)
		motifs = append(motifs, m)
		for s := 0; s < cfg.MotifSup; s++ {
			embedPattern(b, m, used, rng)
		}
	}
	return b.Build(), motifs
}

// libraryMotif models a tight call cluster over 3 library classes (the
// Fig. 24 shape: Calendar/GregorianCalendar/SimpleDateFormat methods
// calling each other) — a dense-ish connected subgraph over 3 labels.
func libraryMotif(size, classes int, rng *rand.Rand) *graph.Graph {
	libs := []graph.Label{
		graph.Label(rng.Intn(classes)),
		graph.Label(rng.Intn(classes)),
		graph.Label(rng.Intn(classes)),
	}
	b := graph.NewBuilder(size, size*2)
	for i := 0; i < size; i++ {
		b.AddVertex(libs[rng.Intn(3)])
	}
	// spanning chain + extra calls
	for v := 1; v < size; v++ {
		b.AddEdge(graph.V(v), graph.V(rng.Intn(v)))
	}
	for t := 0; t < size/2; t++ {
		u, w := graph.V(rng.Intn(size)), graph.V(rng.Intn(size))
		if u != w {
			b.AddEdge(u, w)
		}
	}
	return b.Build()
}
