package canon

import (
	"slices"
	"sync"

	"repro/internal/graph"
)

// Iso is reusable scratch for the WL color refinement behind Invariant /
// VertexColors and for the exact isomorphism-mapping search. The zero
// value is ready to use; an Iso is not safe for concurrent use. Hot loops
// (the miner's merge buckets) hold one Iso per worker; the package-level
// Invariant / IsomorphismMapping / Isomorphic functions borrow one from a
// sync.Pool, so one-shot callers get the pooled fast path too.
//
// Ownership: every slice returned by an Iso method (the Mapping of MapInto
// and MapColored, the slices of Colors) aliases the scratch and is
// invalidated by the next call that writes it. Callers that retain
// results must copy them.
type Iso struct {
	next, hc  []uint64 // refinement ping-pong buffer + per-round color hashes
	ca, cb    []uint64 // per-side vertex colors; ca is also Invariant's
	fa, fb    []uint64 // per-side sorted color multisets; fa is also Invariant's
	sa, sb    []uint64 // label/degree profile scratch
	cv        []colorVert
	ckeys     []uint64  // sorted distinct colors of b
	coff      []int32   // group offsets into cverts, len(ckeys)+1
	cverts    []graph.V // b-vertices grouped by color, v-ascending per group
	glo, ghi  []int32   // per a-vertex candidate range in cverts, resolved once
	order     []graph.V
	heap      []orderItem
	placed    []bool
	adjPlaced []int32
	mapping   Mapping
	used      []bool
}

type colorVert struct {
	c uint64
	v graph.V
}

var isoPool = sync.Pool{New: func() any { return new(Iso) }}

// growU64 returns b resliced to n, grown the way append grows, so an Iso
// that meets ever larger graphs reallocates O(log n) times.
func growU64(b []uint64, n int) []uint64 {
	return slices.Grow(b[:0], n)[:n]
}

// refine runs the WL color refinement behind Invariant into dst (grown as
// needed) and returns it. Each round hashes every vertex's color once
// with mix64, sums each vertex's neighbour hashes by wrapping addition (a
// multiset hash: XOR would cancel a color seen twice), and mixes that sum
// with the vertex's own color, so no round sorts or loops over bytes.
// Like the reference kernel's, each new color is a function of the old
// color and the multiset of neighbour colors that is injective up to
// 64-bit collisions, so after every round the colors split the vertices
// into the same classes. Only that partition is promised: color values
// are derived state that nothing may persist or order by.
func (s *Iso) refine(g *graph.Graph, dst []uint64) []uint64 {
	n := g.N()
	dst = growU64(dst, n)
	s.next = growU64(s.next, n)
	s.hc = growU64(s.hc, n)
	colors, next, hc := dst, s.next, s.hc
	for v := range colors {
		colors[v] = uint64(g.Label(graph.V(v)))
	}
	for r := refinementRounds(n); r > 0; r-- {
		for v, c := range colors {
			hc[v] = mix64(c + golden)
		}
		for v, c := range colors {
			var sum uint64
			for _, w := range g.Neighbors(graph.V(v)) {
				sum += hc[w]
			}
			next[v] = mix64(c ^ sum)
		}
		colors, next = next, colors
	}
	if n > 0 && &colors[0] != &dst[0] {
		copy(dst, colors)
	}
	return dst
}

// sortedCopy returns src's values, sorted, in dst's reused backing.
func sortedCopy(dst, src []uint64) []uint64 {
	dst = append(dst[:0], src...)
	slices.Sort(dst)
	return dst
}

// Invariant is the scratch-backed form of the package-level Invariant.
// The per-vertex colors and their sorted multiset it computes stay
// available through Colors.
func (s *Iso) Invariant(g *graph.Graph) uint64 {
	s.ca = s.refine(g, s.ca)
	s.fa = sortedCopy(s.fa, s.ca)
	h := mix64(uint64(g.N()) + golden)
	h = mix64(h ^ uint64(g.M()))
	for _, c := range s.fa {
		h = mix64(h ^ c)
	}
	return h
}

// Colors returns the per-vertex WL colors of the graph the last Invariant
// call hashed, and their sorted multiset: the inputs MapColored takes, so
// a graph whose invariant was just computed is never refined again. Both
// alias the scratch; they stay valid across MapColored calls and are
// overwritten by the next Invariant or MapInto.
func (s *Iso) Colors() (colors, sorted []uint64) { return s.ca, s.fa }

func (s *Iso) sameProfile(a, b *graph.Graph) bool {
	n := a.N()
	sa, sb := growU64(s.sa, n), growU64(s.sb, n)
	s.sa, s.sb = sa, sb
	for v := 0; v < n; v++ {
		sa[v] = uint64(a.Label(graph.V(v)))<<32 | uint64(a.Degree(graph.V(v)))
		sb[v] = uint64(b.Label(graph.V(v)))<<32 | uint64(b.Degree(graph.V(v)))
	}
	slices.Sort(sa)
	slices.Sort(sb)
	return slices.Equal(sa, sb)
}

// orderItem is one entry of isoOrderInto's lazy heap: a vertex with its
// placed-neighbour count at push time and its fixed tie-breakers.
type orderItem struct {
	adj  int32 // placed neighbours when pushed
	size int32 // candidate-group size in b
	deg  int32
	v    graph.V
}

// before reports whether x is picked ahead of y: more placed neighbours,
// then a rarer color (smaller candidate group), then a higher degree, then
// the lower vertex id.
func (x orderItem) before(y orderItem) bool {
	if x.adj != y.adj {
		return x.adj > y.adj
	}
	if x.size != y.size {
		return x.size < y.size
	}
	if x.deg != y.deg {
		return x.deg > y.deg
	}
	return x.v < y.v
}

// isoOrderInto orders a's vertices for the mapping search so that
// vertices with rare colors come first and every subsequent vertex is
// adjacent to an earlier one when possible, keeping backtracking shallow.
// Each step picks the unplaced vertex that comes first under
// orderItem.before; candidate-group sizes come from the per-vertex ranges
// MapColored resolved (s.glo/s.ghi). The pick is a lazy max-heap: placing
// a vertex pushes a fresh entry for each unplaced neighbour, so ordering
// costs O(m log n). An entry whose count is out of date comes after its
// vertex's fresh entry, so it surfaces only once the vertex is placed, and
// is dropped then.
func (s *Iso) isoOrderInto(a *graph.Graph) []graph.V {
	n := a.N()
	if cap(s.placed) < n {
		s.placed = make([]bool, n)
		s.adjPlaced = make([]int32, n)
	}
	placed, adjPlaced := s.placed[:n], s.adjPlaced[:n]
	h := s.heap[:0]
	for v := 0; v < n; v++ {
		placed[v], adjPlaced[v] = false, 0
		h = append(h, orderItem{0, s.ghi[v] - s.glo[v], int32(a.Degree(graph.V(v))), graph.V(v)})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	order := s.order[:0]
	for len(order) < n {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		siftDown(h, 0)
		v := top.v
		if placed[v] {
			continue
		}
		placed[v] = true
		order = append(order, v)
		for _, w := range a.Neighbors(v) {
			if !placed[w] {
				adjPlaced[w]++
				h = append(h, orderItem{adjPlaced[w], s.ghi[w] - s.glo[w], int32(a.Degree(w)), w})
				siftUp(h, len(h)-1)
			}
		}
	}
	s.heap, s.order = h, order
	return order
}

func siftUp(h []orderItem, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDown(h []orderItem, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// MapInto is the scratch-backed form of IsomorphismMapping: a
// label-preserving adjacency-preserving bijection from a's vertices to b's
// (mapping[av] = bv), or nil. It refines both graphs and runs MapColored.
// The returned Mapping aliases the scratch — copy it to retain it past
// the next call.
func (s *Iso) MapInto(a, b *graph.Graph) Mapping {
	if a.N() != b.N() || a.M() != b.M() {
		return nil
	}
	if a.N() == 0 {
		return Mapping{}
	}
	if !s.sameProfile(a, b) {
		return nil
	}
	s.ca = s.refine(a, s.ca)
	s.cb = s.refine(b, s.cb)
	s.fa = sortedCopy(s.fa, s.ca)
	s.fb = sortedCopy(s.fb, s.cb)
	return s.MapColored(a, s.ca, s.fa, b, s.cb, s.fb)
}

// MapColored is the mapping search behind MapInto, over WL colors the
// caller already holds: ca and cb are a's and b's per-vertex colors, fa
// and fb their sorted multisets (see Colors). It returns the Mapping
// MapInto(a, b) returns, or nil, without refining either graph, and it
// leaves the colors Invariant computed untouched. The returned Mapping
// aliases the scratch — copy it to retain it past the next call.
func (s *Iso) MapColored(a *graph.Graph, ca, fa []uint64, b *graph.Graph, cb, fb []uint64) Mapping {
	if a.N() != b.N() || a.M() != b.M() {
		return nil
	}
	n := a.N()
	if n == 0 {
		return Mapping{}
	}
	if !slices.Equal(fa, fb) {
		return nil
	}
	// Candidate sets: a-vertex can only map to b-vertices with the same WL
	// color. Flat grouped layout in place of the historical map[uint64][]V;
	// groups come out v-ascending, the exact order the map-era appends
	// produced, so the backtracking visits candidates identically.
	cv := s.cv[:0]
	for v := 0; v < n; v++ {
		cv = append(cv, colorVert{cb[v], graph.V(v)})
	}
	slices.SortFunc(cv, func(x, y colorVert) int {
		switch {
		case x.c < y.c:
			return -1
		case x.c > y.c:
			return 1
		}
		return int(x.v) - int(y.v)
	})
	s.cv = cv
	ckeys, coff, cverts := s.ckeys[:0], s.coff[:0], s.cverts[:0]
	for i := 0; i < len(cv); {
		j := i
		for j < len(cv) && cv[j].c == cv[i].c {
			j++
		}
		ckeys = append(ckeys, cv[i].c)
		coff = append(coff, int32(i))
		i = j
	}
	coff = append(coff, int32(len(cv)))
	for _, x := range cv {
		cverts = append(cverts, x.v)
	}
	s.ckeys, s.coff, s.cverts = ckeys, coff, cverts
	// Resolve each a-vertex's candidate range once — n binary searches
	// total, so neither the ordering pass nor the backtracker searches the
	// color table again.
	if cap(s.glo) < n {
		s.glo = make([]int32, n)
		s.ghi = make([]int32, n)
	}
	glo, ghi := s.glo[:n], s.ghi[:n]
	s.glo, s.ghi = glo, ghi
	for v := 0; v < n; v++ {
		if k, ok := slices.BinarySearch(ckeys, ca[v]); ok {
			glo[v], ghi[v] = coff[k], coff[k+1]
		} else {
			glo[v], ghi[v] = 0, 0
		}
	}

	order := s.isoOrderInto(a)
	if cap(s.mapping) < n {
		s.mapping = make(Mapping, n)
		s.used = make([]bool, n)
	}
	mapping, used := s.mapping[:n], s.used[:n]
	for i := 0; i < n; i++ {
		mapping[i], used[i] = -1, false
	}
	var match func(i int) bool
	match = func(i int) bool {
		if i == n {
			return true
		}
		av := order[i]
		for _, bv := range s.cverts[glo[av]:ghi[av]] {
			if used[bv] {
				continue
			}
			if !consistent(a, b, av, bv, mapping, used) {
				continue
			}
			mapping[av] = bv
			used[bv] = true
			if match(i + 1) {
				return true
			}
			mapping[av] = -1
			used[bv] = false
		}
		return false
	}
	if match(0) {
		return mapping
	}
	return nil
}
