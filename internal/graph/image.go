package graph

// SPC1 — the flat CSR graph image, the out-of-core wire form of a built
// Graph. Where the SPG1 codec (codec.go) is a compact delta-encoded edge
// list that must be decoded through Builder.Build, SPC1 is the CSR arrays
// themselves, laid out so that opening a file is aliasing, not decoding:
// a fixed-width little-endian header followed by four 8-byte-aligned
// sections holding exactly the in-memory representation of labels,
// offsets, neighbors, and the per-vertex neighbor-label sketches. On a
// little-endian host (every supported platform today) OpenMapped mmaps
// the file and casts the mapped sections straight onto the *Graph's
// slices — open cost is independent of graph size, no heap copy of the
// adjacency is ever made, and the OS pages the arrays in and out on
// demand, so a host far larger than RAM mines like any other graph.
//
// Layout (all integers little-endian):
//
//	off   0  "SPC1" magic (4 bytes)
//	off   4  u32 version (currently 1)
//	off   8  u64 n (vertex count)
//	off  16  u64 m (undirected edge count)
//	off  24  4 section descriptors × 24 bytes, in fixed order
//	         labels, offsets, neighbors, sketches:
//	           u64 byte offset | u64 byte length | u32 CRC-32C | u32 zero
//	off 120  u32 CRC-32C of header bytes [0, 120)
//	off 124  u32 zero (reserved)
//	off 128  sections, each starting at the next 8-byte boundary:
//	           labels    n   × i32
//	           offsets  n+1  × i32
//	           neighbors 2m  × i32
//	           sketches  n   × u64
//
// Section placement is canonical (computed from n and m alone); the
// descriptors are validated against it, so a hostile header cannot point
// sections at arbitrary file ranges. The format is versioned by the
// magic + version pair: any change to the field set or layout must bump
// them so stale images never alias under a different interpretation.
//
// Verification tiers. OpenImage and OpenMapped fully verify the image —
// the O(1) header checks, the section checksums, one streaming pass over
// the CSR (offset monotonicity, neighbor bounds and sortedness, sketch
// consistency) and one linear sweep that checks adjacency symmetry
// exactly — so arbitrary bytes either error or yield a graph
// indistinguishable from a Builder.Build output. The tier is zero-decode
// and costs O(V+E) reads; its only scratch is the symmetry sweep's
// cursor table, 4 bytes per vertex in one allocation, so an open still
// makes a constant number of allocations.
// OpenMappedTrusted performs only the O(1) header validation and is for
// images the caller already verified (or wrote itself): open time is
// independent of graph size, but a corrupt trusted image can crash the
// process, so it must never be handed untrusted input.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"
)

// ErrBadImage reports bytes that are not a valid SPC1 CSR image —
// unknown magic or version, a truncated or misaligned section, a
// checksum mismatch, or array contents violating the CSR invariants.
var ErrBadImage = errors.New("graph: bad CSR image")

const (
	imageMagic      = "SPC1"
	imageVersion    = 1
	imageHeaderSize = 128
	imageAlign      = 8

	// imageMaxN / imageMaxM bound the header dimensions: offsets are
	// int32 (the in-memory CSR invariant), so 2m and n+1 must fit.
	imageMaxN = math.MaxInt32 - 1
	imageMaxM = math.MaxInt32 / 2
)

// hostLittleEndian reports the running machine's byte order. SPC1 is
// defined little-endian; on a little-endian host the mapped sections
// alias directly, on a big-endian host OpenImage falls back to an
// element-wise converting copy (correct, not zero-copy).
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// imageCRC is the section/header checksum polynomial (CRC-32C,
// Castagnoli — hardware-accelerated on amd64/arm64, shared with the
// store's segment log).
var imageCRC = crc32.MakeTable(crc32.Castagnoli)

// imageLayout is the canonical section placement for a graph with n
// vertices and m edges. Section order is fixed: labels, offs, nbrs,
// sketches.
type imageLayout struct {
	n, m int
	off  [4]int64 // byte offset of each section
	size [4]int64 // byte length of each section
	end  int64    // total image size
}

func alignImage(x int64) int64 { return (x + imageAlign - 1) &^ (imageAlign - 1) }

func layoutFor(n, m int) imageLayout {
	l := imageLayout{n: n, m: m}
	l.size = [4]int64{
		int64(n) * 4,   // labels: i32
		int64(n+1) * 4, // offs:   i32
		int64(2*m) * 4, // nbrs:   i32
		int64(n) * 8,   // sketches: u64
	}
	at := int64(imageHeaderSize)
	for i := range l.off {
		l.off[i] = at
		at = alignImage(at + l.size[i])
	}
	l.end = at
	return l
}

// ImageSize returns the exact byte size of g's SPC1 image.
func (g *Graph) ImageSize() int64 { return layoutFor(g.N(), g.m).end }

// rawBytes reinterprets a numeric slice as its in-memory bytes. Only
// valid on little-endian hosts, where the in-memory representation is
// the wire representation.
func rawBytes[T int32 | Label | uint64](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// leBytes renders a numeric slice little-endian: a zero-copy alias on
// little-endian hosts, an element-wise conversion elsewhere.
func leBytes[T int32 | Label | uint64](s []T) []byte {
	if hostLittleEndian {
		return rawBytes(s)
	}
	w := int(unsafe.Sizeof(*new(T)))
	out := make([]byte, len(s)*w)
	for i, v := range s {
		if w == 4 {
			binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
		} else {
			binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
		}
	}
	return out
}

// buildImageHeader assembles the 128-byte header for the given layout
// and per-section checksums.
func buildImageHeader(l imageLayout, crcs [4]uint32) [imageHeaderSize]byte {
	var h [imageHeaderSize]byte
	copy(h[0:4], imageMagic)
	binary.LittleEndian.PutUint32(h[4:8], imageVersion)
	binary.LittleEndian.PutUint64(h[8:16], uint64(l.n))
	binary.LittleEndian.PutUint64(h[16:24], uint64(l.m))
	for i := 0; i < 4; i++ {
		d := h[24+24*i:]
		binary.LittleEndian.PutUint64(d[0:8], uint64(l.off[i]))
		binary.LittleEndian.PutUint64(d[8:16], uint64(l.size[i]))
		binary.LittleEndian.PutUint32(d[16:20], crcs[i])
	}
	binary.LittleEndian.PutUint32(h[120:124], crc32.Checksum(h[:120], imageCRC))
	return h
}

// imageSections returns the four section payloads of g in canonical
// order, rendered little-endian.
func (g *Graph) imageSections() [4][]byte {
	return [4][]byte{leBytes(g.labels), leBytes(g.offs), leBytes(g.nbrs), leBytes(g.sketches)}
}

// WriteImage writes g's SPC1 image to w and returns the number of bytes
// written (always g.ImageSize() on success). The write streams the CSR
// arrays directly — no per-edge encoding and no second copy of the
// adjacency is made (on little-endian hosts the section payloads alias
// the graph's own arrays).
func (g *Graph) WriteImage(w io.Writer) (int64, error) {
	g.ensureSketches()
	l := layoutFor(g.N(), g.m)
	secs := g.imageSections()
	var crcs [4]uint32
	for i, s := range secs {
		crcs[i] = crc32.Checksum(s, imageCRC)
	}
	hdr := buildImageHeader(l, crcs)
	var written int64
	var pad [imageAlign]byte
	emit := func(p []byte) error {
		n, err := w.Write(p)
		written += int64(n)
		return err
	}
	if err := emit(hdr[:]); err != nil {
		return written, err
	}
	for i, s := range secs {
		if err := emit(s); err != nil {
			return written, err
		}
		if gap := alignImage(l.off[i]+l.size[i]) - (l.off[i] + l.size[i]); gap > 0 {
			if err := emit(pad[:gap]); err != nil {
				return written, err
			}
		}
	}
	return written, nil
}

// AppendImage appends g's SPC1 image to dst and returns the extended
// slice.
func (g *Graph) AppendImage(dst []byte) []byte {
	need := int(g.ImageSize())
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	buf := imageBuf{b: dst}
	if _, err := g.WriteImage(&buf); err != nil {
		// imageBuf never fails; unreachable.
		panic(err)
	}
	return buf.b
}

type imageBuf struct{ b []byte }

func (w *imageBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// WriteImageFile writes g's SPC1 image to path via a temporary file
// renamed into place, so a crash mid-write never leaves a torn image
// under the final name.
func WriteImageFile(g *Graph, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, werr := g.WriteImage(f)
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	return os.Rename(tmp, path)
}

// ensureSketches backfills the neighbor-label sketches for graphs
// assembled without Build (the zero value, or internal constructions);
// Build always populates them.
func (g *Graph) ensureSketches() {
	if g.sketches != nil || g.N() == 0 {
		return
	}
	g.sketches = make([]uint64, g.N())
	for v := 0; v < g.N(); v++ {
		var sk uint64
		for _, w := range g.Neighbors(V(v)) {
			sk = sketchAdd(sk, g.labels[w])
		}
		g.sketches[v] = sk
	}
}

// parseImageHeader performs the O(1) validation tier: magic, version,
// header checksum, dimension bounds, exact total size, and canonical
// section placement. It returns the layout; no section byte is read.
func parseImageHeader(data []byte) (imageLayout, [4]uint32, error) {
	var crcs [4]uint32
	if len(data) < imageHeaderSize {
		return imageLayout{}, crcs, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrBadImage, len(data), imageHeaderSize)
	}
	if string(data[0:4]) != imageMagic {
		return imageLayout{}, crcs, fmt.Errorf("%w: missing %q magic", ErrBadImage, imageMagic)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != imageVersion {
		return imageLayout{}, crcs, fmt.Errorf("%w: unsupported version %d", ErrBadImage, v)
	}
	if got, want := binary.LittleEndian.Uint32(data[120:124]), crc32.Checksum(data[:120], imageCRC); got != want {
		return imageLayout{}, crcs, fmt.Errorf("%w: header checksum mismatch", ErrBadImage)
	}
	n64 := binary.LittleEndian.Uint64(data[8:16])
	m64 := binary.LittleEndian.Uint64(data[16:24])
	if n64 > imageMaxN || m64 > imageMaxM || (n64 == 0 && m64 != 0) {
		return imageLayout{}, crcs, fmt.Errorf("%w: implausible dimensions n=%d m=%d", ErrBadImage, n64, m64)
	}
	l := layoutFor(int(n64), int(m64))
	if l.end > int64(math.MaxInt) || int64(len(data)) != l.end {
		return imageLayout{}, crcs, fmt.Errorf("%w: size %d, want %d for n=%d m=%d", ErrBadImage, len(data), l.end, n64, m64)
	}
	for i := 0; i < 4; i++ {
		d := data[24+24*i:]
		off := binary.LittleEndian.Uint64(d[0:8])
		size := binary.LittleEndian.Uint64(d[8:16])
		if int64(off) != l.off[i] || int64(size) != l.size[i] {
			return imageLayout{}, crcs, fmt.Errorf("%w: section %d at (%d,%d), canonical layout requires (%d,%d)", ErrBadImage, i, off, size, l.off[i], l.size[i])
		}
		crcs[i] = binary.LittleEndian.Uint32(d[16:20])
	}
	return l, crcs, nil
}

// aliasSection reinterprets data[off:off+count*sizeof(T)] as a []T
// without copying. data's base and off must be 8-byte aligned (callers
// guarantee both).
func aliasSection[T int32 | Label | uint64](data []byte, off int64, count int) []T {
	if count == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&data[off])), count)
}

// copySection decodes data[off:] as count little-endian elements into a
// fresh heap slice — the big-endian-host path.
func copySection[T int32 | Label | uint64](data []byte, off int64, count int) []T {
	out := make([]T, count)
	w := int64(unsafe.Sizeof(*new(T)))
	for i := range out {
		p := data[off+int64(i)*w:]
		if w == 4 {
			out[i] = T(int32(binary.LittleEndian.Uint32(p)))
		} else {
			out[i] = T(binary.LittleEndian.Uint64(p))
		}
	}
	return out
}

// openImage validates data as an SPC1 image and assembles the Graph.
// aliased reports whether the graph's arrays point into data (true on
// aligned little-endian opens) — the caller must then keep data alive
// and unmodified for the graph's lifetime. With verify set the full
// O(V+E) tier runs (checksums + structural invariants); without it only
// the O(1) header tier does.
func openImage(data []byte, verify bool) (g *Graph, aliased bool, err error) {
	l, crcs, err := parseImageHeader(data)
	if err != nil {
		return nil, false, err
	}
	if verify {
		for i := 0; i < 4; i++ {
			if crc32.Checksum(data[l.off[i]:l.off[i]+l.size[i]], imageCRC) != crcs[i] {
				return nil, false, fmt.Errorf("%w: section %d checksum mismatch", ErrBadImage, i)
			}
		}
	}
	aliased = hostLittleEndian
	if aliased && uintptr(unsafe.Pointer(&data[0]))%imageAlign != 0 {
		// The byte slice itself is misaligned (possible for in-memory
		// sources; never for an mmap, which is page-aligned): realign by
		// copying into uint64-backed storage so the casts below stay legal.
		backing := make([]uint64, (len(data)+7)/8)
		cp := rawBytes(backing)[:len(data)]
		copy(cp, data)
		data, aliased = cp, false
	}
	g = &Graph{m: l.m}
	if hostLittleEndian {
		g.labels = aliasSection[Label](data, l.off[0], l.n)
		g.offs = aliasSection[int32](data, l.off[1], l.n+1)
		g.nbrs = aliasSection[V](data, l.off[2], 2*l.m)
		g.sketches = aliasSection[uint64](data, l.off[3], l.n)
	} else {
		g.labels = copySection[Label](data, l.off[0], l.n)
		g.offs = copySection[int32](data, l.off[1], l.n+1)
		g.nbrs = copySection[V](data, l.off[2], 2*l.m)
		g.sketches = copySection[uint64](data, l.off[3], l.n)
	}
	if verify {
		if err := verifyImageGraph(g); err != nil {
			return nil, false, err
		}
	}
	return g, aliased, nil
}

// verifyImageGraph checks the structural CSR invariants that make every
// later access of the graph in-bounds and every mining result identical
// to the built twin: a monotone offset table covering exactly the
// neighbor array, per-vertex strictly-ascending neighbor lists (no
// self-loops, no duplicates) of in-range vertices, sketches matching the
// adjacency, and symmetric adjacency. The first three take one streaming
// pass; symmetry takes a second, linear sweep (verifySymmetric) whose
// cursor table is the tier's one allocation, 4 bytes per vertex.
func verifyImageGraph(g *Graph) error {
	n := g.N()
	offs, nbrs := g.offs, g.nbrs
	if offs[0] != 0 {
		return fmt.Errorf("%w: offsets[0] = %d", ErrBadImage, offs[0])
	}
	if int(offs[n]) != len(nbrs) {
		return fmt.Errorf("%w: offsets[n] = %d, want %d", ErrBadImage, offs[n], len(nbrs))
	}
	for v := 0; v < n; v++ {
		lo, hi := offs[v], offs[v+1]
		if hi < lo {
			return fmt.Errorf("%w: offsets decrease at vertex %d", ErrBadImage, v)
		}
		prev := V(-1)
		var sk uint64
		for _, w := range nbrs[lo:hi] {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("%w: neighbor %d of vertex %d out of range", ErrBadImage, w, v)
			}
			if w == V(v) {
				return fmt.Errorf("%w: self-loop at vertex %d", ErrBadImage, v)
			}
			if w <= prev {
				return fmt.Errorf("%w: neighbor list of vertex %d not strictly ascending", ErrBadImage, v)
			}
			prev = w
			sk = sketchAdd(sk, g.labels[w])
		}
		if sk != g.sketches[v] {
			return fmt.Errorf("%w: sketch mismatch at vertex %d", ErrBadImage, v)
		}
	}
	return verifySymmetric(offs, nbrs)
}

// verifySymmetric reports whether every entry w of u's neighbor list is
// matched by an entry u of w's list, in one linear sweep. It needs the
// structural pass's guarantees: monotone offsets covering nbrs, and
// strictly ascending lists of in-range vertices without self-loops.
//
// A vertex w's sorted list starts with its down-prefix, the entries
// below w. Sweeping u ascending, the up-entries u→w (u < w) that reach w
// arrive in ascending u, which is the order of w's down-prefix, so each
// must be the next unconsumed entry of that prefix; cur[w] is the index
// of that entry. When the sweep reaches u, every vertex below it has
// been swept and no later vertex can consume u's prefix, so the prefix
// must be used up: cur[u] then sits at u's first up-entry, where u's own
// up-entries begin. That pairs each up-entry with a distinct down-entry
// and leaves no down-entry unpaired, which is symmetry exactly. (The
// check it replaces searched the shorter of the two lists, so an entry
// whose own list was the shorter one vouched for itself, and entries
// below their vertex were never checked.)
func verifySymmetric(offs []int32, nbrs []V) error {
	n := len(offs) - 1
	cur := make([]int32, n)
	copy(cur, offs[:n])
	for u := 0; u < n; u++ {
		c, hi := cur[u], offs[u+1]
		if c < hi && nbrs[c] < V(u) {
			return fmt.Errorf("%w: vertex %d lists %d, which does not list it back", ErrBadImage, u, nbrs[c])
		}
		for _, w := range nbrs[c:hi] {
			k := cur[w]
			if k == offs[w+1] || nbrs[k] != V(u) {
				return fmt.Errorf("%w: vertex %d lists %d, which does not list it back", ErrBadImage, u, w)
			}
			cur[w] = k + 1
		}
	}
	return nil
}

// OpenImage validates data as an SPC1 image and returns the graph. On
// little-endian hosts the returned graph aliases data zero-copy (the
// caller must not modify data afterwards); the full verification tier
// always runs, so arbitrary bytes either error or yield a graph
// equivalent to a Builder.Build output — never a panic or an
// out-of-bounds access later. Verification allocates one 4-byte cursor
// per vertex for its symmetry sweep, freed when OpenImage returns.
func OpenImage(data []byte) (*Graph, error) {
	g, _, err := openImage(data, true)
	return g, err
}

// Advice is an access-pattern hint for a mapped image, forwarded to the
// OS via madvise on platforms that support it (a no-op elsewhere and on
// read-everything fallback opens).
type Advice int

const (
	// AdviceNormal resets to default kernel readahead.
	AdviceNormal Advice = iota
	// AdviceRandom disables readahead — right for matcher-heavy phases
	// that hop across the neighbor array.
	AdviceRandom
	// AdviceSequential widens readahead — right for whole-graph scans
	// (Stage I table builds, fingerprinting, verification).
	AdviceSequential
	// AdviceWillNeed asks the OS to start paging the image in.
	AdviceWillNeed
)

// Mapped is a graph opened from an SPC1 image, usually backed by an OS
// memory mapping. The graph is served through Graph(); Close releases
// the mapping, after which the graph (and every slice obtained from it)
// must not be touched. Clone the graph first to keep a heap copy beyond
// Close.
type Mapped struct {
	g      *Graph
	data   []byte // the OS mapping; nil after Close or on heap-backed opens
	mapped bool
}

// Graph returns the opened graph. It is valid until Close.
func (m *Mapped) Graph() *Graph { return m.g }

// IsMapped reports whether the graph aliases an OS memory mapping
// (false when the platform fallback or a byte-order conversion read the
// image onto the heap — the graph then lives as long as any reference).
func (m *Mapped) IsMapped() bool { return m.mapped }

// Advise hints the OS about the upcoming access pattern. Best-effort:
// heap-backed opens ignore it, and errors are safe to ignore.
func (m *Mapped) Advise(a Advice) error {
	if !m.mapped || m.data == nil {
		return nil
	}
	return madviseBytes(m.data, a)
}

// Close unmaps the image. The graph returned by Graph() — including any
// slices read from it — is invalid afterwards; Close is idempotent.
func (m *Mapped) Close() error {
	data := m.data
	m.data = nil
	if data == nil || !m.mapped {
		return nil
	}
	return munmapBytes(data)
}

// OpenMapped opens the SPC1 image at path by memory-mapping it and
// aliasing the graph's CSR arrays onto the mapping: no decode, no heap
// copy of the adjacency, O(1) allocations. The full verification tier
// runs (a streaming pass and a symmetry sweep; see the package comment),
// so a truncated, corrupt, or hostile image errors — it never panics and
// never causes an out-of-bounds access later. The sweep's cursor table,
// 4 bytes per vertex, is the only heap the open uses beyond its fixed
// bookkeeping, and it is garbage once OpenMapped returns. On platforms
// without mmap support the image is read onto the heap instead (same
// validation, same graph).
func OpenMapped(path string) (*Mapped, error) {
	return openMappedPath(path, true)
}

// OpenMappedTrusted is OpenMapped with only the O(1) header validation:
// open time is independent of graph size. The caller vouches for the
// image — one this process wrote, or one fully verified before (e.g. by
// a prior OpenMapped or a content-fingerprint check). A corrupt trusted
// image can crash the process; never hand this untrusted input.
func OpenMappedTrusted(path string) (*Mapped, error) {
	return openMappedPath(path, false)
}

func openMappedPath(path string, verify bool) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < imageHeaderSize {
		return nil, fmt.Errorf("%w: %s: %d bytes is shorter than the %d-byte header", ErrBadImage, path, size, imageHeaderSize)
	}
	if !mmapSupported || size > int64(math.MaxInt) {
		return openMappedFallback(f, path, verify)
	}
	data, err := mmapBytes(f, int(size))
	if err != nil {
		// mmap can fail on filesystems that do not support it; fall back
		// to reading the image onto the heap.
		return openMappedFallback(f, path, verify)
	}
	if verify {
		// The verification pass streams the whole file once; tell the
		// kernel so readahead works with us, then drop back to normal.
		madviseBytes(data, AdviceSequential)
	}
	g, aliased, err := openImage(data, verify)
	if err != nil {
		munmapBytes(data)
		return nil, fmt.Errorf("graph: open image %s: %w", path, err)
	}
	if verify {
		madviseBytes(data, AdviceNormal)
	}
	if !aliased {
		// Byte-order conversion copied the arrays to the heap; the
		// mapping has nothing left to offer.
		munmapBytes(data)
		return &Mapped{g: g}, nil
	}
	return &Mapped{g: g, data: data, mapped: true}, nil
}

// openMappedFallback is the read-everything path for platforms (or
// files) that cannot mmap: the image is read onto the heap and opened
// with the same validation; the graph is heap-backed and Close is a
// no-op.
func openMappedFallback(f *os.File, path string, verify bool) (*Mapped, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	g, _, err := openImage(data, verify)
	if err != nil {
		return nil, fmt.Errorf("graph: open image %s: %w", path, err)
	}
	return &Mapped{g: g}, nil
}
