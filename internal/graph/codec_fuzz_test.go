package graph

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// hugeDimensionsBlob is 14 bytes claiming n = m = 2³¹: "SPG1" followed by
// two 5-byte uvarints and nothing else. Reserving space for those counts
// before reading any label needs 24 GiB.
func hugeDimensionsBlob() []byte {
	b := append([]byte(nil), codecMagic[:]...)
	b = binary.AppendUvarint(b, 1<<31)
	return binary.AppendUvarint(b, 1<<31)
}

// TestDecodeBinaryRejectsImplausibleDimensions: counts the remaining
// bytes cannot hold are rejected with ErrBadCodec before any allocation
// sized by them.
func TestDecodeBinaryRejectsImplausibleDimensions(t *testing.T) {
	blob := hugeDimensionsBlob()
	if len(blob) != 14 {
		t.Fatalf("blob is %d bytes, want 14", len(blob))
	}
	cases := map[string][]byte{
		"n=m=2^31, no body": blob,
		"n past the body":   append(append([]byte(nil), codecMagic[:]...), 3, 0, 2, 4),
		"m past the body":   append(append([]byte(nil), codecMagic[:]...), 1, 2, 2, 0, 1),
	}
	for name, data := range cases {
		if _, err := DecodeBinary(data); !errors.Is(err, ErrBadCodec) {
			t.Errorf("%s: want ErrBadCodec, got %v", name, err)
		}
	}
}

// FuzzDecodeBinary is the hostile-bytes gate for the SPG1 codec: for
// arbitrary input DecodeBinary returns an error or a graph, never panics
// and never allocates by a count the input cannot back, and a decoded
// graph re-encodes to bytes that decode to the same graph.
func FuzzDecodeBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	f.Add([]byte(nil))
	f.Add(hugeDimensionsBlob())
	f.Add((&Graph{}).AppendBinary(nil))
	f.Add(FromEdges([]Label{-5, 0, 9}, []Edge{{0, 1}, {1, 2}, {0, 2}}).AppendBinary(nil))
	f.Add(randomGraph(rng, 30, 80).AppendBinary(nil))
	valid := randomGraph(rng, 12, 30).AppendBinary(nil)
	f.Add(valid[:len(valid)-1])                     // truncated
	f.Add(append(valid[:len(valid):len(valid)], 0)) // trailing byte

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeBinary(data)
		if err != nil {
			if !errors.Is(err, ErrBadCodec) {
				t.Fatalf("error %v does not wrap ErrBadCodec", err)
			}
			return
		}
		g2, err := DecodeBinary(g.AppendBinary(nil))
		if err != nil {
			t.Fatalf("re-encoding of a decoded graph rejected: %v", err)
		}
		sameGraph(t, g2, g)
	})
}
