package serve

import (
	"errors"
	"os"
	"testing"

	"repro/internal/graph"
	"repro/internal/store"
)

func imageTestHost() *graph.Graph {
	return graph.FromEdges(
		[]graph.Label{1, 2, 3, 2, 1, 3},
		[]graph.Edge{{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 3}, {U: 3, W: 4}, {U: 4, W: 5}, {U: 0, W: 5}, {U: 1, W: 4}},
	)
}

// TestImagePersistAndMappedRecovery is the serve-layer out-of-core
// round trip: upload past the threshold writes an SPC1 image through
// the backend's file tier, and a restart recovers the host by mmap —
// zero decode — with the identical fingerprint and content.
func TestImagePersistAndMappedRecovery(t *testing.T) {
	dir := t.TempDir()
	g := imageTestHost()

	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(d)
	s.imageEdges = 1 // every host is image-worthy in tests
	sg, existed, err := s.Add(g, "hexring")
	if err != nil || existed {
		t.Fatalf("Add: existed=%v err=%v", existed, err)
	}
	if _, err := d.FilePath("images", sg.ID); err != nil {
		t.Fatalf("no image after over-threshold Add: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	s2 := NewStore(d2)
	s2.imageEdges = 1
	recovered, mapped, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 1 || mapped != 1 {
		t.Fatalf("recovered=%d mapped=%d, want 1/1", recovered, mapped)
	}
	got, err := s2.Get(sg.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "hexring" || got.Vertices != g.N() || got.Edges != g.M() {
		t.Fatalf("recovered metadata %+v differs", got)
	}
	if fp := FingerprintGraph(got.G); fp != sg.ID {
		t.Fatalf("mapped graph fingerprint %s, want %s", fp, sg.ID)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestImageCorruptionFallsBackToDecode: a damaged image must never take
// recovery down — the SPG1 blob is the durable copy; the image is
// silently rebuilt so the restart after next maps again.
func TestImageCorruptionFallsBackToDecode(t *testing.T) {
	dir := t.TempDir()
	g := imageTestHost()

	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(d)
	s.imageEdges = 1
	sg, _, err := s.Add(g, "h")
	if err != nil {
		t.Fatal(err)
	}
	path, err := d.FilePath("images", sg.ID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // corrupt the sketch section tail
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	s2 := NewStore(d2)
	s2.imageEdges = 1
	recovered, mapped, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 1 || mapped != 0 {
		t.Fatalf("recovered=%d mapped=%d, want 1 recovered, 0 mapped", recovered, mapped)
	}
	got, err := s2.Get(sg.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fp := FingerprintGraph(got.G); fp != sg.ID {
		t.Fatalf("decoded fallback fingerprint %s, want %s", fp, sg.ID)
	}
	// The fallback rewrote the image; a third open maps again.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	s3 := NewStore(d3)
	s3.imageEdges = 1
	if _, mapped, err = s3.Recover(); err != nil || mapped != 1 {
		t.Fatalf("after rebuild: mapped=%d err=%v, want 1/nil", mapped, err)
	}
	s3.Close()
}

// TestImageThreshold: hosts under the threshold never write images;
// memory-only stores have no file tier at all and uploads still work.
func TestImageThreshold(t *testing.T) {
	d, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := NewStore(d)
	s.imageEdges = 1000 // host has 7 edges: under threshold
	sg, _, err := s.Add(imageTestHost(), "small")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.FilePath("images", sg.ID); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("under-threshold host wrote an image (err %v)", err)
	}

	s2 := NewStore(nil) // no file tier: threshold moot
	s2.imageEdges = 1
	if _, _, err := s2.Add(imageTestHost(), "mem"); err != nil {
		t.Fatal(err)
	}
}

// TestServerImageRecovery runs the same round trip through the public
// Open/Config surface spiderserved uses.
func TestServerImageRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := Open(Config{Runners: 1, QueueCap: 4, Backend: d})
	if err != nil {
		t.Fatal(err)
	}
	srv.store.imageEdges = 1
	sg, _, err := srv.Store().Add(imageTestHost(), "via-server")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	srv2, rs, err := Open(Config{Runners: 1, QueueCap: 4, Backend: d2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if rs.Graphs != 1 || rs.Mapped != 1 {
		t.Fatalf("RecoveryStats = %+v, want Graphs=1 Mapped=1", rs)
	}
	if _, err := srv2.Store().Get(sg.ID); err != nil {
		t.Fatal(err)
	}
}
