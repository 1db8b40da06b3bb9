// Package canon provides labeled-graph canonicalization and isomorphism
// machinery: a Weisfeiler–Leman style isomorphism-invariant hash, exact
// labeled graph isomorphism, VF2-style subgraph isomorphism with embedding
// enumeration, and an automorphism-pruned canonical code (Canonizer).
//
// Pattern identity in the miners is decided in three tiers:
//  1. Invariant hash (cheap, collision-prone only across genuinely
//     WL-equivalent graphs),
//  2. spider-set signature (see internal/pattern),
//  3. exact check — canonical-code comparison via a reusable Canonizer
//     (cached per pattern by consumers), with Isomorphic retained for
//     one-off pairwise tests.
package canon

import "repro/internal/graph"

// golden is the 64-bit golden-ratio increment of splitmix64. Adding it
// before mix64 keeps a zero color from hashing to zero, which would make
// it vanish from every neighbour sum.
const golden = 0x9e3779b97f4a7c15

// mix64 is splitmix64's finalizer: a bijection on 64-bit words whose
// output bits each depend on every input bit. It is the one word mixer
// behind refinement colors and Invariant.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// Invariant returns an isomorphism-invariant 64-bit hash of the labeled
// graph, computed by iterated neighborhood color refinement
// (1-dimensional Weisfeiler–Leman). Isomorphic graphs always get equal
// hashes; non-isomorphic graphs may collide (rarely in practice).
//
// The refinement state comes from a pooled Iso scratch; hot loops that
// compute many invariants hold their own Iso and call (*Iso).Invariant.
func Invariant(g *graph.Graph) uint64 {
	s := isoPool.Get().(*Iso)
	h := s.Invariant(g)
	isoPool.Put(s)
	return h
}

// refinementRounds picks enough WL rounds to stabilize small patterns:
// diameter-many rounds suffice; log2(n)+2 is a safe, cheap bound for the
// pattern sizes the miners handle. The count is part of the refinement's
// contract: after each round the colors partition the vertices exactly as
// the reference kernel's do (sorted neighbour lists hashed bytewise, kept
// in internal/spidermine/refine_ref_test.go). On a graph still splitting
// at the last round, one round more or fewer changes that partition, and
// with it the mappings MapColored finds.
func refinementRounds(n int) int {
	r := 2
	for m := n; m > 1; m >>= 1 {
		r++
	}
	if r > 16 {
		r = 16
	}
	return r
}

// VertexColors runs the same refinement as Invariant and returns the final
// per-vertex colors (freshly allocated — safe to retain). Only their
// partition is meaningful: two vertices share a color exactly when
// refinement cannot tell them apart. The harmful-overlap support measure
// (internal/support) uses it to approximate automorphism orbits.
func VertexColors(g *graph.Graph) []uint64 {
	s := isoPool.Get().(*Iso)
	s.ca = s.refine(g, s.ca)
	out := make([]uint64, g.N())
	copy(out, s.ca)
	isoPool.Put(s)
	return out
}
