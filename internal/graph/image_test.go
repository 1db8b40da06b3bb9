package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// randomTestGraph builds a deterministic pseudo-random graph (the graph
// package cannot import internal/gen — that would cycle).
func randomTestGraph(n, m, labels int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, m)
	for i := 0; i < n; i++ {
		b.AddVertex(Label(rng.Intn(labels)))
	}
	for i := 0; i < m; i++ {
		b.AddEdge(V(rng.Intn(n)), V(rng.Intn(n)))
	}
	return b.Build()
}

func imageTestGraphs() map[string]*Graph {
	return map[string]*Graph{
		"empty":    FromEdges(nil, nil),
		"lone":     FromEdges([]Label{7}, nil),
		"edge":     FromEdges([]Label{1, 2}, []Edge{{0, 1}}),
		"path":     FromEdges([]Label{1, 2, 3, 2}, []Edge{{0, 1}, {1, 2}, {2, 3}}),
		"triangle": FromEdges([]Label{5, 5, 5}, []Edge{{0, 1}, {1, 2}, {0, 2}}),
		"star":     FromEdges([]Label{0, 1, 1, 1, 1, 1}, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}),
		"random":   randomTestGraph(400, 1600, 12, 1),
		"random2":  randomTestGraph(1000, 5000, 3, 2),
	}
}

// sameImageGraph asserts got carries exactly want's content,
// reusing the codec tests' structural comparison and adding the
// label-universe check (mapped graphs build that index lazily).
func sameImageGraph(t *testing.T, want, got *Graph) {
	t.Helper()
	sameGraph(t, got, want)
	if got.NumLabels() != want.NumLabels() {
		t.Fatalf("NumLabels = %d, want %d", got.NumLabels(), want.NumLabels())
	}
}

// imageBytes returns g's SPC1 image, written with WriteImage into a
// bytes.Buffer.
func imageBytes(g *Graph) []byte {
	var buf bytes.Buffer
	g.WriteImage(&buf) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

func TestImageRoundTrip(t *testing.T) {
	for name, g := range imageTestGraphs() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			nw, err := g.WriteImage(&buf)
			if err != nil {
				t.Fatalf("WriteImage: %v", err)
			}
			if size := layoutFor(g.N(), g.M()).end; nw != size || int64(buf.Len()) != size {
				t.Fatalf("wrote %d bytes (buffer %d), the layout says %d", nw, buf.Len(), size)
			}
			g2, err := OpenImage(buf.Bytes())
			if err != nil {
				t.Fatalf("OpenImage: %v", err)
			}
			sameImageGraph(t, g, g2)
		})
	}
}

func TestImageTruncationErrors(t *testing.T) {
	g := imageTestGraphs()["random"]
	img := imageBytes(g)
	for _, cut := range []int{0, 1, 4, 63, imageHeaderSize - 1, imageHeaderSize, imageHeaderSize + 5, len(img) / 2, len(img) - 1} {
		if _, err := OpenImage(img[:cut]); err == nil {
			t.Errorf("OpenImage accepted a %d-byte truncation of a %d-byte image", cut, len(img))
		} else if !errors.Is(err, ErrBadImage) {
			t.Errorf("truncation at %d: error %v does not wrap ErrBadImage", cut, err)
		}
	}
	// Trailing junk is truncation's sibling: the size must match exactly.
	if _, err := OpenImage(append(append([]byte(nil), img...), 0)); err == nil {
		t.Error("OpenImage accepted trailing bytes")
	}
}

func TestImageBitFlipsDetectedOrHarmless(t *testing.T) {
	g := imageTestGraphs()["path"]
	img := imageBytes(g)
	for i := range img {
		for _, bit := range []byte{1, 0x80} {
			mut := append([]byte(nil), img...)
			mut[i] ^= bit
			g2, err := OpenImage(mut)
			if err != nil {
				continue // detected — the common case
			}
			// A flip that survives must be content-neutral (alignment
			// padding); anything else silently aliasing is a checksum hole.
			sameImageGraph(t, g, g2)
		}
	}
}

// sealImageHeader recomputes only the header checksum — used to craft
// images whose header is internally valid but lies about the payload.
func sealImageHeader(img []byte) {
	binary.LittleEndian.PutUint32(img[120:124], crc32.Checksum(img[:120], imageCRC))
}

// rehashImage recomputes the section checksums and the header checksum
// of img in place — the helper hostile-image tests use to produce
// checksum-valid images with invalid content.
func rehashImage(img []byte) {
	n := int(binary.LittleEndian.Uint64(img[8:16]))
	m := int(binary.LittleEndian.Uint64(img[16:24]))
	l := layoutFor(n, m)
	for i := 0; i < 4; i++ {
		sec := img[l.off[i] : l.off[i]+l.size[i]]
		binary.LittleEndian.PutUint32(img[24+24*i+16:], crc32.Checksum(sec, imageCRC))
	}
	binary.LittleEndian.PutUint32(img[120:124], crc32.Checksum(img[:120], imageCRC))
}

func TestImageHostileContentRejected(t *testing.T) {
	g := imageTestGraphs()["path"] // labels [1 2 3 2], edges 0-1 1-2 2-3
	base := imageBytes(g)
	l := layoutFor(g.N(), g.M())
	off32 := func(sec int, idx int) int { return int(l.off[sec]) + 4*idx }
	mutate := func(name string, f func(img []byte)) {
		img := append([]byte(nil), base...)
		f(img)
		rehashImage(img)
		if _, err := OpenImage(img); err == nil {
			t.Errorf("%s: hostile image accepted", name)
		} else if !errors.Is(err, ErrBadImage) {
			t.Errorf("%s: error %v does not wrap ErrBadImage", name, err)
		}
	}
	mutate("offsets decrease", func(img []byte) {
		binary.LittleEndian.PutUint32(img[off32(1, 2):], 0) // offs[2]=0 < offs[1]
	})
	mutate("offsets overshoot", func(img []byte) {
		binary.LittleEndian.PutUint32(img[off32(1, g.N()):], uint32(2*g.M()+4))
	})
	mutate("neighbor out of range", func(img []byte) {
		binary.LittleEndian.PutUint32(img[off32(2, 0):], uint32(g.N())+3)
	})
	mutate("negative neighbor", func(img []byte) {
		binary.LittleEndian.PutUint32(img[off32(2, 0):], ^uint32(0))
	})
	mutate("self-loop", func(img []byte) {
		binary.LittleEndian.PutUint32(img[off32(2, 0):], 0) // vertex 0's first neighbor := 0
	})
	mutate("unsorted duplicate neighbors", func(img []byte) {
		// vertex 1 has neighbors [0, 2]; make them [2, 2].
		binary.LittleEndian.PutUint32(img[off32(2, 1):], 2)
	})
	mutate("asymmetric adjacency", func(img []byte) {
		// vertex 0's neighbor list is [1]; point it at 3, which does not
		// list 0 back.
		binary.LittleEndian.PutUint32(img[off32(2, 0):], 3)
	})
	mutate("sketch mismatch", func(img []byte) {
		img[l.off[3]] ^= 1
	})
	mutate("non-canonical section placement", func(img []byte) {
		// Descriptor tampering: shift the neighbors section pointer.
		binary.LittleEndian.PutUint64(img[24+24*2:], uint64(l.off[2])+8)
	})
	// Dimension lie: bump n and re-seal only the header checksum —
	// rehashImage would trust the lied dimensions and slice out of range,
	// which is exactly what parseImageHeader must prevent OpenImage from
	// doing.
	lie := append([]byte(nil), base...)
	binary.LittleEndian.PutUint64(lie[8:16], uint64(g.N()+1))
	sealImageHeader(lie)
	if _, err := OpenImage(lie); !errors.Is(err, ErrBadImage) {
		t.Errorf("dimension lie: got %v, want ErrBadImage", err)
	}
}

func TestOpenImageUnalignedInput(t *testing.T) {
	g := imageTestGraphs()["random"]
	img := imageBytes(g)
	for shift := 1; shift < imageAlign; shift++ {
		buf := make([]byte, len(img)+shift)
		copy(buf[shift:], img)
		g2, err := OpenImage(buf[shift:])
		if err != nil {
			t.Fatalf("shift %d: %v", shift, err)
		}
		sameImageGraph(t, g, g2)
	}
}

func writeTempImage(t testing.TB, g *Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.spc1")
	if err := WriteImageFile(g, path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenMappedFile(t *testing.T) {
	for name, g := range imageTestGraphs() {
		t.Run(name, func(t *testing.T) {
			m, err := OpenMapped(writeTempImage(t, g))
			if err != nil {
				t.Fatal(err)
			}
			sameImageGraph(t, g, m.Graph())
			for _, a := range []Advice{AdviceSequential, AdviceRandom, AdviceWillNeed, AdviceNormal} {
				if err := m.Advise(a); err != nil {
					t.Fatalf("Advise(%d): %v", a, err)
				}
			}
			if err := m.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := m.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}

func TestOpenMappedRejectsCorruptFile(t *testing.T) {
	g := imageTestGraphs()["random"]
	img := imageBytes(g)
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.spc1")
	if err := os.WriteFile(bad, img[:len(img)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(bad); err == nil {
		t.Fatal("OpenMapped accepted a truncated file")
	}
	if err := os.WriteFile(bad, []byte("SP"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(bad); !errors.Is(err, ErrBadImage) {
		t.Fatalf("tiny file: got %v, want ErrBadImage", err)
	}
	if _, err := OpenMapped(filepath.Join(dir, "absent.spc1")); err == nil {
		t.Fatal("OpenMapped accepted a missing file")
	}
}

// TestOpenMappedFallback drives the read-everything path directly (on
// mmap-capable platforms it is otherwise reached only when mmap fails),
// so the !mmap platforms' logic stays tested everywhere.
func TestOpenMappedFallback(t *testing.T) {
	g := imageTestGraphs()["random"]
	path := writeTempImage(t, g)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := openMappedFallback(f, path)
	if err != nil {
		t.Fatal(err)
	}
	if m.IsMapped() {
		t.Fatal("fallback open claims to be mapped")
	}
	sameImageGraph(t, g, m.Graph())
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	sameImageGraph(t, g, m.Graph()) // heap-backed: survives Close
}

// TestOpenMappedO1Alloc is the open-cost gate: opening an image — even
// with full verification, a streaming pass plus a symmetry sweep over a
// 4-byte-per-vertex cursor table — performs a small constant number of
// allocations regardless of graph size, and leaves the lazy label index
// unbuilt.
func TestOpenMappedO1Alloc(t *testing.T) {
	small := randomTestGraph(200, 600, 8, 3)
	big := randomTestGraph(20000, 120000, 8, 4)
	const budget = 40 // file open + stat + mmap bookkeeping + the two structs
	for _, tc := range []struct {
		name string
		g    *Graph
	}{{"small", small}, {"big", big}} {
		path := writeTempImage(t, tc.g)
		allocs := testing.AllocsPerRun(10, func() {
			m, err := OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			if m.Graph().N() != tc.g.N() {
				t.Fatal("wrong graph")
			}
			m.Close()
		})
		if allocs > budget {
			t.Errorf("open of %s graph: %.0f allocs/op, budget %d", tc.name, allocs, budget)
		}
		m, err := OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		g := m.Graph()
		if g.byLabel != nil || g.labelVerts != nil {
			t.Error("open built the lazy label index")
		}
		if got := g.VerticesWithLabel(g.Label(0)); len(got) == 0 {
			t.Error("lazy label index unusable on mapped graph")
		}
		if g.byLabel == nil {
			t.Error("label index did not build on demand")
		}
		m.Close()
	}
}

// TestMappedCloneIsHeapBacked pins the Clone contract for mapped
// graphs: the clone deep-copies every array back to the heap, so it
// outlives Close.
func TestMappedCloneIsHeapBacked(t *testing.T) {
	g := imageTestGraphs()["random"]
	path := writeTempImage(t, g)
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	clone := m.Graph().Clone()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	sameImageGraph(t, g, clone)
	if got := clone.VerticesWithLabel(clone.Label(0)); len(got) == 0 {
		t.Fatal("clone lost its labels")
	}
}

// TestMappedGraphMinesLikeBuilt is the package-local smoke version of
// the repo-root equivalence gate: matcher-relevant read paths agree
// between a mapped graph and its built twin.
func TestMappedGraphMinesLikeBuilt(t *testing.T) {
	g := randomTestGraph(300, 900, 5, 7)
	path := writeTempImage(t, g)
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mg := m.Graph()
	for v := 0; v < g.N(); v++ {
		for w := 0; w < g.N(); w++ {
			if g.HasEdge(V(v), V(w)) != mg.HasEdge(V(v), V(w)) {
				t.Fatalf("HasEdge(%d,%d) disagrees", v, w)
			}
		}
	}
	for l := Label(0); l < 5; l++ {
		a, b := g.VerticesWithLabel(l), mg.VerticesWithLabel(l)
		if len(a) != len(b) {
			t.Fatalf("VerticesWithLabel(%d) length disagrees", l)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("VerticesWithLabel(%d)[%d] disagrees", l, i)
			}
		}
	}
	if g.MaxDegree() != mg.MaxDegree() || g.AvgDegree() != mg.AvgDegree() {
		t.Fatal("degree stats disagree")
	}
}

func TestAppendEdgesMatchesEdges(t *testing.T) {
	g := randomTestGraph(200, 800, 6, 9)
	want := g.Edges()
	buf := make([]Edge, 0, g.M())
	got := g.AppendEdges(buf[:0])
	if len(got) != len(want) {
		t.Fatalf("AppendEdges returned %d edges, Edges %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: %v vs %v", i, got[i], want[i])
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		buf = g.AppendEdges(buf[:0])
	}); allocs != 0 {
		t.Errorf("AppendEdges into a sized buffer allocates %.0f/op", allocs)
	}
}
