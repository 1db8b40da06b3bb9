package serve

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
)

// imageDataDir writes g under name to a fresh data dir through a store
// that images every host, closes it, and returns the dir, the graph's
// id and its stored blob.
func imageDataDir(t *testing.T, g *graph.Graph, name string) (dir, id string, blob []byte) {
	t.Helper()
	dir = t.TempDir()
	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(d)
	s.imageEdges = 1
	sg, _, err := s.Add(g, name)
	if err != nil {
		t.Fatal(err)
	}
	if blob, err = d.Get(kindGraph, sg.ID); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, sg.ID, blob
}

// recoverDir opens dir and recovers a store over it; the disk and the
// store's mappings are released when the test ends.
func recoverDir(t *testing.T, dir string) (s *Store, recovered, mapped int, err error) {
	t.Helper()
	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s = NewStore(d)
	s.imageEdges = 1
	t.Cleanup(func() {
		s.Close()
		d.Close()
	})
	recovered, mapped, err = s.Recover()
	return s, recovered, mapped, err
}

// TestRecoverMappedAllocatesLessThanBlob: a host that recovers from its
// image keeps only the head of its SPG1 blob, so the whole recovery
// allocates less than that one blob. Reading the blob whole, as
// recovery once did to learn the host's name, allocated all of it.
func TestRecoverMappedAllocatesLessThanBlob(t *testing.T) {
	g := gen.BarabasiAlbert(20000, 8, 50, rand.New(rand.NewSource(1)))
	dir, _, blob := imageDataDir(t, g, "ba-20k")

	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := NewStore(d)
	s.imageEdges = 1
	defer s.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recovered, mapped, err := s.Recover()
	runtime.ReadMemStats(&after)
	if err != nil || recovered != 1 || mapped != 1 {
		t.Fatalf("Recover = %d recovered, %d mapped, %v; want 1, 1, nil", recovered, mapped, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(len(blob)) {
		t.Fatalf("mapped recovery allocated %d bytes, not less than the %d-byte SPG1 blob", got, len(blob))
	}
}

// TestRecoverNameLongerThanPrefix: a mapped host whose stored name does
// not fit in the blob head recovery keeps still recovers mapped, with
// its name intact, whichever side of the head's end the metadata stops.
func TestRecoverNameLongerThanPrefix(t *testing.T) {
	g := imageTestHost()
	for _, n := range []int{0, 1, storedMetaPrefix - 20, storedMetaPrefix - 12, storedMetaPrefix - 3, storedMetaPrefix, storedMetaPrefix + 1, 4 * storedMetaPrefix, 70000} {
		name := strings.Repeat("n", n)
		dir, id, _ := imageDataDir(t, g, name)
		s, recovered, mapped, err := recoverDir(t, dir)
		if err != nil || recovered != 1 || mapped != 1 {
			t.Fatalf("name of %d bytes: Recover = %d recovered, %d mapped, %v; want 1, 1, nil", n, recovered, mapped, err)
		}
		sg, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if sg.Name != name {
			t.Fatalf("name of %d bytes recovered as %d bytes", n, len(sg.Name))
		}
	}
}

// TestRecoverRottedBlobUnderGoodImage: a flipped byte in a host's SPG1
// frame fails recovery even when the host's image is intact and would
// map, because the mapped path still CRC-verifies the whole frame. The
// flips land past the head recovery keeps.
func TestRecoverRottedBlobUnderGoodImage(t *testing.T) {
	g := gen.BarabasiAlbert(3000, 4, 20, rand.New(rand.NewSource(2)))
	for _, at := range []int{storedMetaPrefix + 10, -1} {
		dir, _, blob := imageDataDir(t, g, "victim")
		path := filepath.Join(dir, "store.log")
		log, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		i := bytes.Index(log, blob)
		if i < 0 {
			t.Fatal("blob not found in the log")
		}
		if at < 0 {
			at = len(blob) - 1
		}
		log[i+at] ^= 0x10
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := recoverDir(t, dir); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("flip at blob byte %d: Recover = %v, want a CRC failure", at, err)
		}
	}
}
