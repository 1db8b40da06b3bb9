package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// prefixBlobs are blobs that exercise every branch of GetPrefix: empty,
// short, one byte either side of the stream buffer, several buffers
// long, and a key so long that the payload head alone fills the first
// buffer.
func prefixBlobs() map[string][]byte {
	rng := rand.New(rand.NewSource(1))
	blob := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	return map[string][]byte{
		"empty":                          nil,
		"short":                          []byte("a short blob"),
		"chunk-less-1":                   blob(prefixChunk - 1),
		"chunk":                          blob(prefixChunk),
		"chunk-plus-1":                   blob(prefixChunk + 1),
		"many-chunks":                    blob(3*prefixChunk + 17),
		strings.Repeat("k", prefixChunk): blob(300),
	}
}

func prefixDisk(t *testing.T) *Disk {
	t.Helper()
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	for key, b := range prefixBlobs() {
		if err := d.Put("graphs", key, b); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestDiskGetPrefixMatchesGet: for every key and every length, GetPrefix
// returns the first n bytes of what Get returns, in a slice of its own.
func TestDiskGetPrefixMatchesGet(t *testing.T) {
	d := prefixDisk(t)
	for key, want := range prefixBlobs() {
		got, err := d.Get("graphs", key)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%.20q) = %d bytes, %v", key, len(got), err)
		}
		for _, n := range []int{-1, 0, 1, 7, len(want) - 1, len(want), len(want) + 1, prefixChunk - 40, prefixChunk, 2*prefixChunk + 5} {
			p, err := d.GetPrefix("graphs", key, n)
			if err != nil {
				t.Fatalf("GetPrefix(%.20q, %d): %v", key, n, err)
			}
			if w := want[:min(max(n, 0), len(want))]; !bytes.Equal(p, w) {
				t.Fatalf("GetPrefix(%.20q, %d) = %d bytes, want the first %d of Get", key, n, len(p), len(w))
			}
			if cap(p) > len(p)+len(p)/4+16 {
				t.Fatalf("GetPrefix(%.20q, %d) holds %d bytes for a %d-byte prefix", key, n, cap(p), len(p))
			}
		}
	}
	if _, err := d.GetPrefix("graphs", "absent", 8); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetPrefix of a missing key: %v, want ErrNotFound", err)
	}
}

// TestDiskGetPrefixDetectsRot: a byte flipped past the prefix — in the
// first buffer or in a later one — fails GetPrefix, as it fails Get.
func TestDiskGetPrefixDetectsRot(t *testing.T) {
	for _, at := range []int{100, prefixChunk + 3, 3*prefixChunk + 16} {
		d := prefixDisk(t)
		blob := prefixBlobs()["many-chunks"]
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(d.dir, logName)
		log, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		i := bytes.Index(log, blob)
		if i < 0 {
			t.Fatal("blob not found in the log")
		}
		log[i+at] ^= 0x40
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		nd, err := OpenDisk(d.dir) // the sidecar still matches the log's size
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nd.Get("graphs", "many-chunks"); err == nil {
			t.Fatalf("flip at %d: Get accepted a rotted frame", at)
		}
		if _, err := nd.GetPrefix("graphs", "many-chunks", 16); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("flip at %d: GetPrefix = %v, want a CRC mismatch", at, err)
		}
		if p, err := nd.GetPrefix("graphs", "short", 5); err != nil || string(p) != "a sho" {
			t.Fatalf("flip at %d: an intact neighbour read %q, %v", at, p, err)
		}
		nd.Close()
	}
}

// TestDiskGetPrefixCountsOneGet: GetPrefix counts one get and the
// frame's bytes, exactly what Get counts for the same blob.
func TestDiskGetPrefixCountsOneGet(t *testing.T) {
	d := prefixDisk(t)
	for key := range prefixBlobs() {
		before := d.Stats()
		if _, err := d.Get("graphs", key); err != nil {
			t.Fatal(err)
		}
		mid := d.Stats()
		if _, err := d.GetPrefix("graphs", key, 10); err != nil {
			t.Fatal(err)
		}
		after := d.Stats()
		if g := after.Gets - mid.Gets; g != 1 {
			t.Fatalf("GetPrefix(%.20q) counted %d gets, want 1", key, g)
		}
		if got, want := after.BytesRead-mid.BytesRead, mid.BytesRead-before.BytesRead; got != want || want == 0 {
			t.Fatalf("GetPrefix(%.20q) counted %d bytes read, Get %d", key, got, want)
		}
	}
}
