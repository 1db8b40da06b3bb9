package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
)

// ErrUnknownGraph reports a lookup miss: no graph with that fingerprint
// is registered. Get wraps it with the id; any other Get error is a read
// failure (the serve/store/get failpoint) and serving surfaces must
// treat it as retryable, not as "not found".
var ErrUnknownGraph = errors.New("serve: unknown graph")

// ErrPersist marks a write-through failure on the durable tier: the
// graph was parsed and fingerprinted but could not be made durable, so
// it was not registered. Serving surfaces map it to 503 backpressure —
// the client should retry, not fix its request.
var ErrPersist = errors.New("serve: persistent store write failed")

// kindGraph and kindResult are the backend blob namespaces the serving
// layer uses: uploaded host graphs keyed by content fingerprint, and
// cached mining results keyed by the frozen cache-key triple.
const (
	kindGraph  = "graphs"
	kindResult = "results"
	// kindImage is the file-tier namespace for SPC1 graph images (see
	// store.Disk.PutFile): whole files alongside the log, mmap'd back at
	// recovery so large hosts reopen in O(1) instead of re-decoding.
	kindImage = "images"
)

// DefaultImageEdgeThreshold is the edge count past which an uploaded
// host also gets an SPC1 image in the disk's file tier. Below it the
// SPG1 blob decode is already cheap and the extra file would just
// double small hosts' disk footprint; above it, recovery maps the image
// instead of decoding the host onto the heap.
const DefaultImageEdgeThreshold = 1 << 20

// StoredGraph is one registered host graph. ID is the content
// fingerprint (FingerprintGraph), so a graph uploaded twice — under any
// name — registers once; Name is advisory metadata from the first
// upload. The graph itself is immutable (the package-wide contract of
// internal/graph), so StoredGraph is safe for concurrent reads.
type StoredGraph struct {
	ID       string    `json:"id"`
	Name     string    `json:"name,omitempty"`
	Vertices int       `json:"vertices"`
	Edges    int       `json:"edges"`
	Uploaded time.Time `json:"uploaded"`

	G *graph.Graph `json:"-"`
}

// Store is the concurrent registry of uploaded host graphs, keyed by
// content fingerprint. The decoded map is the read tier (jobs hold the
// *graph.Graph). With a disk, every Add writes through to it first, so
// a graph is never registered without being durable — and Recover
// rebuilds the registry from the disk after a restart. Without one the
// map is all there is.
type Store struct {
	mu    sync.RWMutex
	byID  map[string]*StoredGraph
	order []string // registration order, for stable listings

	// disk is the durable tier, nil for a memory-only store. imageEdges
	// is the edge count at which uploads also write an SPC1 image to its
	// file tier (DefaultImageEdgeThreshold; tests lower it). mapped
	// tracks the mmap handles Recover opened so Close can unmap them.
	disk       *store.Disk
	imageEdges int
	mapped     []*graph.Mapped

	// imageWrites / imageErrs tally best-effort image persistence: a
	// failed image write never fails the upload (the SPG1 blob is the
	// durable copy), so the error count is the only trace.
	imageWrites obs.Counter
	imageErrs   obs.Counter

	// Read-path tallies (every Get; the unknown-fingerprint subset; the
	// injected-fault subset). The store owns them so a serving surface's
	// /metrics reads the same numbers the store itself saw.
	reads  obs.Counter
	misses obs.Counter
	faults obs.Counter
}

// NewStore returns an empty graph store writing through to disk, or a
// memory-only one when disk is nil.
func NewStore(disk *store.Disk) *Store {
	return &Store{byID: make(map[string]*StoredGraph), disk: disk, imageEdges: DefaultImageEdgeThreshold}
}

// Close unmaps every graph Recover opened via mmap. The store must not
// be read concurrently with or after Close — mapped graphs' memory is
// gone once unmapped.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	for _, m := range s.mapped {
		if cerr := m.Close(); err == nil {
			err = cerr
		}
	}
	s.mapped = nil
	return err
}

// putImage best-effort persists g's SPC1 image to the disk's file tier
// when the graph is past the threshold. Never fails the caller: the SPG1
// blob in the log is the durable copy, the image is an open-time
// optimization recreated on the next upload or recovery if lost.
func (s *Store) putImage(id string, g *graph.Graph) {
	if g.M() < s.imageEdges {
		return
	}
	if err := s.disk.PutFile(kindImage, id, imageWriterTo{g}); err != nil {
		s.imageErrs.Inc()
		return
	}
	s.imageWrites.Inc()
}

// imageWriterTo adapts Graph.WriteImage to io.WriterTo for
// store.Disk.PutFile.
type imageWriterTo struct{ g *graph.Graph }

func (w imageWriterTo) WriteTo(dst io.Writer) (int64, error) { return w.g.WriteImage(dst) }

// encodeStoredGraph is the graph-blob wire form: a version byte, the
// advisory name, the upload time, then the graph's binary encoding
// (internal/graph codec).
func encodeStoredGraph(sg *StoredGraph) []byte {
	dst := []byte{1}
	dst = binary.AppendUvarint(dst, uint64(len(sg.Name)))
	dst = append(dst, sg.Name...)
	dst = binary.AppendVarint(dst, sg.Uploaded.UnixNano())
	return sg.G.AppendBinary(dst)
}

// decodeStoredMeta parses a graph blob's metadata prefix (version byte,
// advisory name, upload time) and returns the remaining SPG1 payload
// undecoded. The mapped recovery path hands it only the blob's first
// storedMetaPrefix bytes, so a truncated name or timestamp there may just
// mean the head was cut short.
func decodeStoredMeta(id string, blob []byte) (name string, uploaded time.Time, spg1 []byte, err error) {
	if len(blob) < 1 || blob[0] != 1 {
		return "", time.Time{}, nil, fmt.Errorf("serve: graph blob %s: unknown version", id)
	}
	p := blob[1:]
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w) {
		return "", time.Time{}, nil, fmt.Errorf("serve: graph blob %s: truncated name", id)
	}
	name = string(p[w : w+int(n)])
	p = p[w+int(n):]
	nanos, w := binary.Varint(p)
	if w <= 0 {
		return "", time.Time{}, nil, fmt.Errorf("serve: graph blob %s: truncated timestamp", id)
	}
	return name, time.Unix(0, nanos).UTC(), p[w:], nil
}

// Add registers a graph under its content fingerprint and returns the
// stored record. If a graph with the same content is already registered,
// the existing record is returned (its original name kept) and existed
// is true. With a disk, the blob is written through to it before the
// registry learns of it; a failed write returns an error wrapping
// ErrPersist and registers nothing.
func (s *Store) Add(g *graph.Graph, name string) (sg *StoredGraph, existed bool, err error) {
	id := FingerprintGraph(g)
	s.mu.RLock()
	prev, ok := s.byID[id]
	s.mu.RUnlock()
	if ok {
		return prev, true, nil
	}
	sg = &StoredGraph{
		ID: id, Name: name,
		Vertices: g.N(), Edges: g.M(),
		Uploaded: time.Now().UTC(),
		G:        g,
	}
	if s.disk != nil {
		// Durable first, registered second — outside the lock: an fsync
		// on the write-through must not block concurrent reads.
		if perr := s.disk.Put(kindGraph, id, encodeStoredGraph(sg)); perr != nil {
			return nil, false, fmt.Errorf("%w: %w", ErrPersist, perr)
		}
		// Best-effort SPC1 image alongside the durable blob: a large host
		// re-opens by mmap at recovery instead of re-decoding.
		s.putImage(id, g)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.byID[id]; ok {
		// A concurrent upload of the same content won the race; the extra
		// backend Put was an idempotent overwrite of identical bytes.
		return prev, true, nil
	}
	s.byID[id] = sg
	s.order = append(s.order, id)
	return sg, false, nil
}

// Recover rebuilds the registry from the disk; a memory-only store has
// nothing to recover. Every graph's content fingerprint is re-verified
// against the key it was stored under — a mismatch means corruption (or
// a codec drift) and fails recovery loudly rather than serving wrong
// bytes under a trusted id.
//
// A graph with a persisted SPC1 image in the file tier recovers by
// mmap'ing the image (zero decode, no heap copy of the adjacency) and
// re-verifying the fingerprint of the mapped graph. Its SPG1 blob is
// then read through store.Disk.GetPrefix: the whole frame is read and
// CRC-verified, so a rotted blob still fails recovery, but only the
// blob's head (version, name, upload time) is kept; a name too long for
// that head is read from the whole blob. Any image problem — missing
// file, failed open, wrong fingerprint — silently falls back to reading
// and decoding the SPG1 blob, because the image is a cache, not the
// durable copy. mapped counts the graphs serving straight from the page
// cache. Call before serving traffic.
func (s *Store) Recover() (recovered, mapped int, err error) {
	if s.disk == nil {
		return 0, 0, nil
	}
	keys, err := s.disk.List(kindGraph)
	if err != nil {
		return 0, 0, fmt.Errorf("serve: recover graphs: %w", err)
	}
	for _, id := range keys {
		sg, m, err := s.recoverGraph(id)
		if err != nil {
			return recovered, mapped, err
		}
		s.mu.Lock()
		if _, ok := s.byID[id]; !ok {
			s.byID[id] = sg
			s.order = append(s.order, id)
			recovered++
			if m != nil {
				s.mapped = append(s.mapped, m)
				mapped++
				m = nil
			}
		}
		s.mu.Unlock()
		if m != nil {
			m.Close() // lost the registration race; drop the duplicate map
		}
	}
	return recovered, mapped, nil
}

// recoverGraph rebuilds the stored graph id, from its image when one
// opens and matches (m is then its mapping) and from its SPG1 blob
// otherwise.
func (s *Store) recoverGraph(id string) (sg *StoredGraph, m *graph.Mapped, err error) {
	if m = s.openImage(id); m != nil {
		name, uploaded, err := s.storedMeta(id)
		if err != nil {
			m.Close()
			return nil, nil, err
		}
		g := m.Graph()
		return &StoredGraph{
			ID: id, Name: name,
			Vertices: g.N(), Edges: g.M(),
			Uploaded: uploaded,
			G:        g,
		}, m, nil
	}
	blob, err := s.disk.Get(kindGraph, id)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: recover graph %s: %w", id, err)
	}
	name, uploaded, spg1, err := decodeStoredMeta(id, blob)
	if err != nil {
		return nil, nil, err
	}
	g, err := graph.DecodeBinary(spg1)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: graph blob %s: %w", id, err)
	}
	if fp := FingerprintGraph(g); fp != id {
		return nil, nil, fmt.Errorf("serve: recover graph %s: fingerprint mismatch (decoded %s)", id, fp)
	}
	// The image was missing or bad but the host is image-worthy: rewrite
	// it so the next restart maps instead of decoding.
	s.putImage(id, g)
	return &StoredGraph{
		ID: id, Name: name,
		Vertices: g.N(), Edges: g.M(),
		Uploaded: uploaded,
		G:        g,
	}, nil, nil
}

// storedMetaPrefix is how much of a graph blob the mapped recovery path
// keeps: the version byte, the name's length, a name of up to about 235
// bytes and the upload time.
const storedMetaPrefix = 256

// storedMeta reads the name and upload time of graph id from the head
// of its blob, verifying the whole frame. A head cut short of the
// metadata means a longer name: the blob is then read whole.
func (s *Store) storedMeta(id string) (name string, uploaded time.Time, err error) {
	head, err := s.disk.GetPrefix(kindGraph, id, storedMetaPrefix)
	if err != nil {
		return "", time.Time{}, fmt.Errorf("serve: recover graph %s: %w", id, err)
	}
	name, uploaded, _, err = decodeStoredMeta(id, head)
	if err == nil || len(head) < storedMetaPrefix {
		return name, uploaded, err
	}
	blob, err := s.disk.Get(kindGraph, id)
	if err != nil {
		return "", time.Time{}, fmt.Errorf("serve: recover graph %s: %w", id, err)
	}
	name, uploaded, _, err = decodeStoredMeta(id, blob)
	return name, uploaded, err
}

// openImage tries the file-tier SPC1 image for id: mmap, structural
// verification (OpenMapped's streaming pass), then the content
// fingerprint check that ties the mapped bytes to the id they claim.
// Any failure returns nil — the caller decodes the SPG1 blob instead.
func (s *Store) openImage(id string) *graph.Mapped {
	path, err := s.disk.FilePath(kindImage, id)
	if err != nil {
		return nil
	}
	m, err := graph.OpenMapped(path)
	if err != nil {
		s.imageErrs.Inc()
		return nil
	}
	if fp := FingerprintGraph(m.Graph()); fp != id {
		s.imageErrs.Inc()
		m.Close()
		return nil
	}
	return m
}

// ReadLG parses an LG-format graph from r and registers it. Malformed
// input is rejected by the reader's validation (positional errors for
// duplicate vertex ids, undefined edge endpoints, second headers) and
// nothing is registered; a durable-tier write failure surfaces as an
// error wrapping ErrPersist.
func (s *Store) ReadLG(r io.Reader, fallbackName string) (sg *StoredGraph, existed bool, err error) {
	g, name, err := graph.ReadLG(r)
	if err != nil {
		return nil, false, err
	}
	if g.N() == 0 {
		return nil, false, fmt.Errorf("serve: empty graph upload (no vertices)")
	}
	if name == "" {
		name = fallbackName
	}
	return s.Add(g, name)
}

// Get looks a graph up by fingerprint id. A miss returns an error
// wrapping ErrUnknownGraph; any other error is a failed read (see
// ErrUnknownGraph).
func (s *Store) Get(id string) (*StoredGraph, error) {
	s.reads.Inc()
	if err := fpStoreGet.Hit(); err != nil {
		s.faults.Inc()
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	sg, ok := s.byID[id]
	if !ok {
		s.misses.Inc()
		return nil, fmt.Errorf("%w %q", ErrUnknownGraph, id)
	}
	return sg, nil
}

// List returns the registered graphs in registration order.
func (s *Store) List() []*StoredGraph {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*StoredGraph, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.byID[id])
	}
	return out
}

// Len reports how many graphs are registered.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byID)
}
