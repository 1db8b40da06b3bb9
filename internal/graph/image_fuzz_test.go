package graph

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzOpenImage is the hostile-image gate: for arbitrary bytes,
// OpenImage either returns an error or a graph that is fully usable —
// it never panics, never reads out of bounds (the race/checkptr CI jobs
// run this corpus), and any graph it accepts is symmetric, survives a
// traversal and re-images to bytes that open to the same content.
func FuzzOpenImage(f *testing.F) {
	small := FromEdges([]Label{1, 2, 3, 2}, []Edge{{0, 1}, {1, 2}, {2, 3}})
	valid := imageBytes(small)
	f.Add([]byte(nil))
	f.Add(valid)                                  // well-formed
	f.Add(imageBytes(FromEdges(nil, nil)))        // well-formed, empty
	f.Add(valid[:16])                             // truncated header
	f.Add(valid[:imageHeaderSize])                // header only, missing sections
	f.Add(valid[:len(valid)-3])                   // truncated final section
	f.Add(append(bytes.Clone(valid), 0, 0, 0, 0)) // trailing junk
	f.Add(append([]byte("SPG1"), valid[4:]...))   // wrong magic (the codec's)
	f.Add(bytes.Clone(valid[:4]))                 // magic alone

	// Misaligned-section descriptor: shift the neighbors section offset
	// and re-seal the header checksum so only the canonical-layout check
	// can catch it.
	mis := bytes.Clone(valid)
	off := binary.LittleEndian.Uint64(mis[24+24*2:])
	binary.LittleEndian.PutUint64(mis[24+24*2:], off+4)
	sealImageHeader(mis)
	f.Add(mis)

	// Bad section checksum: flip a payload byte, leave checksums alone.
	bad := bytes.Clone(valid)
	bad[imageHeaderSize] ^= 0xff
	f.Add(bad)

	// Dimension lies with a valid header checksum.
	huge := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(huge[8:16], 1<<40)
	sealImageHeader(huge)
	f.Add(huge)
	negm := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(negm[16:24], ^uint64(0))
	sealImageHeader(negm)
	f.Add(negm)

	// Sorted lists, matching sketches, valid checksums, not symmetric.
	for _, tc := range asymmetricImages() {
		f.Add(csrImage(tc.labels, tc.lists))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := OpenImage(data)
		if err != nil {
			return
		}
		// Accepted: the graph must be internally consistent and usable.
		edges := 0
		for v := 0; v < g.N(); v++ {
			_ = g.Label(V(v))
			_ = g.NeighborSketch(V(v))
			for _, w := range g.Neighbors(V(v)) {
				// Ask w's own list: HasEdge searches the shorter of the two
				// lists, so an entry can vouch for itself.
				if _, ok := slices.BinarySearch(g.Neighbors(w), V(v)); !ok {
					t.Fatalf("asymmetric edge (%d,%d) in accepted image", v, w)
				}
				if V(v) < w {
					edges++
				}
			}
		}
		if edges != g.M() {
			t.Fatalf("M()=%d but CSR holds %d edges", g.M(), edges)
		}
		if g.NumLabels() < 0 || g.NumLabels() > g.N() {
			t.Fatalf("NumLabels %d out of range for n=%d", g.NumLabels(), g.N())
		}
		// Round-trip: re-imaging an accepted graph must produce an image
		// that opens to identical content.
		img2 := imageBytes(g)
		g2, err := OpenImage(img2)
		if err != nil {
			t.Fatalf("re-image of accepted graph rejected: %v", err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("re-image changed shape: (%d,%d) vs (%d,%d)", g.N(), g.M(), g2.N(), g2.M())
		}
		_ = g.Clone()
	})
}
