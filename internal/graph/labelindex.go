package graph

import "slices"

// Label index and neighbor-label frequency sketches.
//
// The index groups vertex ids by label in one flat array (labelVerts) with
// a map of per-label subslices, so the matcher can seed its root candidate
// set with exactly the vertices carrying the root's label instead of
// scanning all N host vertices.
//
// The sketch is a 64-bit SWAR counter array: 16 buckets of 4 bits, where
// bucket hash(l) holds the number of neighbors with label l, saturated at
// 7 (the fourth bit of each field is reserved so domination can be tested
// branch-free). A host vertex can only host a pattern vertex if its sketch
// dominates the pattern vertex's sketch bucket-wise; saturation makes the
// test conservative (false positives only), so it is a pure filter in
// front of the exact adjacency checks.

const (
	sketchMax = 7 // per-bucket saturation (3 usable bits per field)
	// sketchHigh has the reserved top bit of each 4-bit field set.
	sketchHigh uint64 = 0x8888888888888888
)

// sketchBucket maps a label to its sketch bucket via a multiplicative
// hash, spreading adjacent label values across buckets: the hash's top 4
// bits pick one of the 16.
func sketchBucket(l Label) uint {
	return uint(uint32(l)*2654435761) >> 28
}

// sketchAdd increments the bucket for label l, saturating at sketchMax.
func sketchAdd(s uint64, l Label) uint64 {
	shift := sketchBucket(l) * 4
	if (s>>shift)&0xf >= sketchMax {
		return s
	}
	return s + 1<<shift
}

// SketchDominates reports whether every bucket of host is >= the matching
// bucket of pat. Both operands must be sketches produced by this package
// (counts <= 7, top field bits clear). The test is the standard SWAR
// trick: borrow into the reserved bit of a field happens exactly when that
// field of host is smaller than pat's.
func SketchDominates(host, pat uint64) bool {
	// Setting the reserved bit makes every minuend field >= 8 > pat's
	// field, so subtraction never borrows across fields; the reserved bit
	// survives in exactly the fields where host >= pat.
	return ((host|sketchHigh)-pat)&sketchHigh == sketchHigh
}

// NeighborSketch returns the neighbor-label frequency sketch of v.
func (g *Graph) NeighborSketch(v V) uint64 { return g.sketches[v] }

// VerticesWithLabel returns the sorted vertex ids carrying label l. The
// returned slice is shared with the graph and must not be modified.
func (g *Graph) VerticesWithLabel(l Label) []V {
	g.ensureLabelIndex()
	return g.byLabel[l]
}

// LabelCount returns the number of vertices carrying label l.
func (g *Graph) LabelCount(l Label) int {
	g.ensureLabelIndex()
	return len(g.byLabel[l])
}

// ensureLabelIndex builds the label index on first use; safe for
// concurrent callers (graphs are immutable once built).
func (g *Graph) ensureLabelIndex() {
	g.labelOnce.Do(g.buildLabelIndex)
}

// buildLabelIndex populates numLabels, labelVerts and byLabel.
func (g *Graph) buildLabelIndex() {
	n := len(g.labels)
	g.labelVerts = make([]V, n)
	for i := range g.labelVerts {
		g.labelVerts[i] = V(i)
	}
	slices.SortFunc(g.labelVerts, func(a, b V) int {
		if g.labels[a] != g.labels[b] {
			return int(g.labels[a]) - int(g.labels[b])
		}
		return int(a) - int(b)
	})
	g.byLabel = make(map[Label][]V)
	for start := 0; start < n; {
		l := g.labels[g.labelVerts[start]]
		end := start + 1
		for end < n && g.labels[g.labelVerts[end]] == l {
			end++
		}
		g.byLabel[l] = g.labelVerts[start:end:end]
		start = end
	}
	g.numLabels = len(g.byLabel)
}
