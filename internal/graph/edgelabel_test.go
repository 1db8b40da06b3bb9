package graph

import (
	"math"
	"strings"
	"testing"
)

func TestEncodeDecodeEdgeLabels(t *testing.T) {
	labels := []Label{1, 2, 3}
	edges := []Edge{{0, 1}, {1, 2}}
	elabels := []Label{7, 8}
	enc, err := EncodeEdgeLabels(labels, edges, elabels, 0)
	if err != nil {
		t.Fatal(err)
	}
	if enc.N() != 5 || enc.M() != 4 {
		t.Fatalf("encoded: %v, want 5 vertices / 4 edges", enc)
	}
	// midpoints carry shifted labels
	if enc.Label(3) != EdgeLabelOffset+7 || enc.Label(4) != EdgeLabelOffset+8 {
		t.Fatal("midpoint labels wrong")
	}
	vl, de, dangling, err := DecodeEdgeLabels(enc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dangling != 0 {
		t.Fatalf("dangling %d", dangling)
	}
	if len(vl) != 3 || len(de) != 2 {
		t.Fatalf("decoded %d vertices, %d edges", len(vl), len(de))
	}
	for i, e := range de {
		if e.Label != elabels[i] {
			t.Fatalf("edge %d label %d, want %d", i, e.Label, elabels[i])
		}
	}
}

func TestEncodeEdgeLabelsErrors(t *testing.T) {
	if _, err := EncodeEdgeLabels([]Label{0}, []Edge{{0, 1}}, []Label{0}, 0); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := EncodeEdgeLabels([]Label{0}, []Edge{{0, 0}}, nil, 0); err == nil {
		t.Fatal("edge/label length mismatch accepted")
	}
	if _, err := EncodeEdgeLabels([]Label{EdgeLabelOffset + 1}, nil, nil, 0); err == nil {
		t.Fatal("colliding vertex label accepted")
	}
	// An edge label below 0 or past MaxInt32-offset gives a midpoint the
	// decoder cannot read back; the error names the edge.
	edges := []Edge{{0, 1}, {2, 3}}
	for _, bad := range []Label{-1, math.MaxInt32 - EdgeLabelOffset + 1} {
		_, err := EncodeEdgeLabels([]Label{0, 1, 2, 3}, edges, []Label{0, bad}, 0)
		if err == nil || !strings.Contains(err.Error(), "edge 1 ") {
			t.Fatalf("edge label %d: err = %v, want one naming edge 1", bad, err)
		}
	}
	if _, err := EncodeEdgeLabels([]Label{0, 1, 2, 3}, edges, []Label{0, math.MaxInt32 - EdgeLabelOffset}, 0); err != nil {
		t.Fatalf("largest edge label rejected: %v", err)
	}
}

func TestDecodeEdgeLabelsDangling(t *testing.T) {
	// Encoded pattern ending on a half-edge: midpoint with one neighbor.
	b := NewBuilder(2, 1)
	b.AddVertex(1)
	b.AddVertex(EdgeLabelOffset + 5)
	b.AddEdge(0, 1)
	_, de, dangling, err := DecodeEdgeLabels(b.Build(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(de) != 0 || dangling != 1 {
		t.Fatalf("edges %d dangling %d", len(de), dangling)
	}
}

func TestDecodeEdgeLabelsRejectsMalformed(t *testing.T) {
	// Two original vertices adjacent: not an encoded graph.
	g := FromEdges([]Label{1, 2}, []Edge{{0, 1}})
	if _, _, _, err := DecodeEdgeLabels(g, 0); err == nil {
		t.Fatal("malformed graph accepted")
	}
	// Midpoint adjacent to midpoint.
	b := NewBuilder(2, 1)
	b.AddVertex(EdgeLabelOffset + 1)
	b.AddVertex(EdgeLabelOffset + 2)
	b.AddEdge(0, 1)
	if _, _, _, err := DecodeEdgeLabels(b.Build(), 0); err == nil {
		t.Fatal("midpoint-midpoint edge accepted")
	}
	// Midpoint of degree 3.
	b2 := NewBuilder(4, 3)
	b2.AddVertex(1)
	b2.AddVertex(1)
	b2.AddVertex(1)
	b2.AddVertex(EdgeLabelOffset)
	b2.AddEdge(0, 3)
	b2.AddEdge(1, 3)
	b2.AddEdge(2, 3)
	if _, _, _, err := DecodeEdgeLabels(b2.Build(), 0); err == nil {
		t.Fatal("degree-3 midpoint accepted")
	}
}
