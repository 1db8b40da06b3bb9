package graph

import (
	"fmt"
	"math"
)

// Edge-labeled graphs. The paper notes (§3) that SpiderMine "can also be
// applied to graphs with edge labels". This file provides the standard
// reduction: each labeled edge {u, w} with label l is subdivided by a
// midpoint vertex carrying l shifted into a reserved label range, turning
// an edge-labeled graph into the vertex-labeled graphs the miners operate
// on. Patterns mined in the encoded space decode back to edge-labeled
// patterns.
//
// Distances double under the encoding, so double Dmax (and keep r as-is:
// an encoded 1-spider covers a head plus its incident edge labels).

// EdgeLabelOffset is the default label shift for midpoint vertices;
// vertex labels must stay below it.
const EdgeLabelOffset Label = 1 << 20

// EncodeEdgeLabels builds the subdivided vertex-labeled graph from vertex
// labels, edges and per-edge labels (parallel to edges). Midpoint vertices
// are appended after the original vertices in edge order, labeled
// offset + edgeLabel. It returns an error if any vertex label reaches the
// offset (the two ranges must not collide), or if an edge label is
// negative or so large that its midpoint label would pass math.MaxInt32;
// either would give a midpoint DecodeEdgeLabels reads as something else.
func EncodeEdgeLabels(labels []Label, edges []Edge, edgeLabels []Label, offset Label) (*Graph, error) {
	if len(edges) != len(edgeLabels) {
		return nil, fmt.Errorf("graph: %d edges but %d edge labels", len(edges), len(edgeLabels))
	}
	if offset <= 0 {
		offset = EdgeLabelOffset
	}
	for v, l := range labels {
		if l >= offset {
			return nil, fmt.Errorf("graph: vertex %d label %d collides with edge-label offset %d", v, l, offset)
		}
	}
	b := NewBuilder(len(labels)+len(edges), 2*len(edges))
	for _, l := range labels {
		b.AddVertex(l)
	}
	for i, e := range edges {
		if int(e.U) >= len(labels) || int(e.W) >= len(labels) || e.U < 0 || e.W < 0 {
			return nil, fmt.Errorf("graph: edge %v out of range", e)
		}
		if el := edgeLabels[i]; el < 0 || el > math.MaxInt32-offset {
			return nil, fmt.Errorf("graph: edge %d label %d outside [0, %d] for edge-label offset %d", i, el, math.MaxInt32-offset, offset)
		}
		mid := b.AddVertex(offset + edgeLabels[i])
		b.AddEdge(e.U, mid)
		b.AddEdge(mid, e.W)
	}
	return b.Build(), nil
}

// DecodedEdge is one edge of a decoded edge-labeled pattern.
type DecodedEdge struct {
	U, W  V
	Label Label
}

// DecodeEdgeLabels interprets a pattern mined on an encoded graph back as
// an edge-labeled pattern: vertices with labels >= offset are midpoints;
// each must have exactly two neighbors, both original vertices. Original
// vertices are renumbered densely in ascending order. Midpoints with
// fewer than two neighbors (a pattern can end on a half-edge) are dropped
// with ok=false reported via the danglingMidpoints count.
func DecodeEdgeLabels(p *Graph, offset Label) (vertexLabels []Label, edges []DecodedEdge, danglingMidpoints int, err error) {
	if offset <= 0 {
		offset = EdgeLabelOffset
	}
	remap := make([]V, p.N())
	for v := 0; v < p.N(); v++ {
		if p.Label(V(v)) < offset {
			remap[v] = V(len(vertexLabels))
			vertexLabels = append(vertexLabels, p.Label(V(v)))
		} else {
			remap[v] = -1
		}
	}
	for v := 0; v < p.N(); v++ {
		l := p.Label(V(v))
		if l < offset {
			// Original vertices may only touch midpoints in a well-formed
			// encoded pattern.
			for _, w := range p.Neighbors(V(v)) {
				if p.Label(w) < offset {
					return nil, nil, 0, fmt.Errorf("graph: original vertices %d and %d adjacent; not an encoded graph", v, w)
				}
			}
			continue
		}
		nbrs := p.Neighbors(V(v))
		for _, w := range nbrs {
			if remap[w] < 0 {
				return nil, nil, 0, fmt.Errorf("graph: midpoint %d adjacent to another midpoint", v)
			}
		}
		switch len(nbrs) {
		case 2:
			edges = append(edges, DecodedEdge{U: remap[nbrs[0]], W: remap[nbrs[1]], Label: l - offset})
		case 0, 1:
			danglingMidpoints++
		default:
			return nil, nil, 0, fmt.Errorf("graph: midpoint %d has degree %d", v, len(nbrs))
		}
	}
	return vertexLabels, edges, danglingMidpoints, nil
}
