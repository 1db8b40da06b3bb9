package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Versioned binary codec for CSR graphs — the wire form the durable
// store (internal/store) persists uploaded hosts in. The encoding
// covers exactly the canonical content Builder.Build produces (vertex
// count, edge count, label sequence, sorted deduped U<W edge list), so
// Decode(Encode(g)) rebuilds a graph byte-identical to the original
// Build output: same CSR layout, same sketches, same fingerprint.
//
// Layout (integers varint-encoded unless noted):
//
//	"SPG1" magic (4 raw bytes)
//	uvarint n, uvarint m
//	n zigzag-varint labels
//	m edges, sorted (U, W) with U < W, delta-encoded:
//	  uvarint dU = U - prevU; then uvarint W if dU > 0 (new row),
//	  else uvarint dW = W - prevW (same row, strictly ascending)
//
// The format is versioned by the magic: any change to the field set or
// encoding must introduce a new magic so stale blobs can never decode
// under a different interpretation.

// codecMagic identifies version 1 of the binary graph encoding.
var codecMagic = [4]byte{'S', 'P', 'G', '1'}

// ErrBadCodec reports bytes that are not a valid encoded graph —
// unknown magic, truncated input, or an edge list violating the
// canonical sort invariant.
var ErrBadCodec = errors.New("graph: bad binary encoding")

// AppendBinary appends the graph's binary encoding to dst and returns
// the extended slice.
func (g *Graph) AppendBinary(dst []byte) []byte {
	dst = append(dst, codecMagic[:]...)
	dst = binary.AppendUvarint(dst, uint64(g.N()))
	dst = binary.AppendUvarint(dst, uint64(g.M()))
	for _, l := range g.labels {
		dst = binary.AppendVarint(dst, int64(l))
	}
	prevU, prevW := V(0), V(0)
	for u := 0; u < len(g.labels); u++ {
		for _, w := range g.Neighbors(V(u)) {
			if w <= V(u) {
				continue
			}
			dU := V(u) - prevU
			dst = binary.AppendUvarint(dst, uint64(dU))
			if dU > 0 {
				dst = binary.AppendUvarint(dst, uint64(w))
			} else {
				dst = binary.AppendUvarint(dst, uint64(w-prevW))
			}
			prevU, prevW = V(u), w
		}
	}
	return dst
}

// DecodeBinary rebuilds a graph from its binary encoding, validating
// every structural invariant (vertex bounds, U < W, strict canonical
// edge order — which rules out duplicates) before constructing the CSR
// through the same Builder.Build path an upload takes, so the decoded
// graph is byte-identical to the originally built one.
func DecodeBinary(data []byte) (*Graph, error) {
	if len(data) < len(codecMagic) || [4]byte(data[:4]) != codecMagic {
		return nil, fmt.Errorf("%w: missing %q magic", ErrBadCodec, codecMagic)
	}
	p := data[4:]
	readUvarint := func() (uint64, error) {
		v, w := binary.Uvarint(p)
		if w <= 0 {
			return 0, fmt.Errorf("%w: truncated varint", ErrBadCodec)
		}
		p = p[w:]
		return v, nil
	}
	n64, err := readUvarint()
	if err != nil {
		return nil, err
	}
	m64, err := readUvarint()
	if err != nil {
		return nil, err
	}
	// Vertex ids must fit V. Each label takes at least one byte and each
	// edge at least two, so counts the remaining bytes cannot hold are
	// corrupt: reject them before NewBuilder reserves space for them.
	const maxGraphDim = 1 << 31
	if n64 > maxGraphDim || m64 > maxGraphDim || n64 > uint64(len(p)) || m64 > uint64(len(p))/2 {
		return nil, fmt.Errorf("%w: implausible dimensions n=%d m=%d for %d bytes", ErrBadCodec, n64, m64, len(p))
	}
	n, m := int(n64), int(m64)
	b := NewBuilder(n, m)
	for i := 0; i < n; i++ {
		l, w := binary.Varint(p)
		if w <= 0 {
			return nil, fmt.Errorf("%w: truncated label sequence", ErrBadCodec)
		}
		p = p[w:]
		b.AddVertex(Label(l))
	}
	prevU, prevW := -1, -1
	for i := 0; i < m; i++ {
		dU, err := readUvarint()
		if err != nil {
			return nil, err
		}
		var u, w int
		if prevU < 0 {
			u = int(dU)
		} else {
			u = prevU + int(dU)
		}
		x, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if dU > 0 || prevU < 0 {
			w = int(x)
		} else {
			if x == 0 {
				return nil, fmt.Errorf("%w: duplicate edge at index %d", ErrBadCodec, i)
			}
			w = prevW + int(x)
		}
		if u >= n || w >= n || u < 0 || w < 0 || u >= w {
			return nil, fmt.Errorf("%w: edge (%d, %d) out of canonical form", ErrBadCodec, u, w)
		}
		b.AddEdge(V(u), V(w))
		prevU, prevW = u, w
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCodec, len(p))
	}
	g := b.Build()
	if g.M() != m {
		// Unreachable given the validation above; kept as a backstop so a
		// codec bug can never silently alias two different graphs.
		return nil, fmt.Errorf("%w: edge count mismatch after build (%d != %d)", ErrBadCodec, g.M(), m)
	}
	return g, nil
}
