package graph

import (
	"io"
	"testing"
)

// benchImageGraph is sized so the open-cost benchmarks measure a host
// large enough that O(1) vs O(decode) is unambiguous, while keeping
// bench setup cheap.
func benchImageGraph() *Graph {
	return randomTestGraph(50000, 200000, 32, 42)
}

func BenchmarkWriteImage(b *testing.B) {
	g := benchImageGraph()
	b.SetBytes(g.ImageSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.WriteImage(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenMapped measures the default verified open: mmap, one
// streaming validation pass and the symmetry sweep, whose cursor table
// (4 bytes per vertex) is the open's one size-dependent allocation.
func BenchmarkOpenMapped(b *testing.B) {
	g := benchImageGraph()
	path := writeTempImage(b, g)
	b.SetBytes(g.ImageSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := OpenMapped(path)
		if err != nil {
			b.Fatal(err)
		}
		if m.Graph().N() != g.N() {
			b.Fatal("wrong graph")
		}
		m.Close()
	}
}

// BenchmarkOpenMappedTrusted measures the header-only O(1) open used
// for images this process (or the store's recovery fingerprint check)
// already verified.
func BenchmarkOpenMappedTrusted(b *testing.B) {
	g := benchImageGraph()
	path := writeTempImage(b, g)
	b.SetBytes(g.ImageSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := OpenMappedTrusted(path)
		if err != nil {
			b.Fatal(err)
		}
		if m.Graph().N() != g.N() {
			b.Fatal("wrong graph")
		}
		m.Close()
	}
}

// BenchmarkDecodeBinary is the SPG1 baseline the mapped open is
// replacing for large hosts: varint delta decode through Builder.Build.
func BenchmarkDecodeBinary(b *testing.B) {
	g := benchImageGraph()
	enc := g.AppendBinary(nil)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g2, err := DecodeBinary(enc)
		if err != nil {
			b.Fatal(err)
		}
		if g2.N() != g.N() {
			b.Fatal("wrong graph")
		}
	}
}
