package store

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

func TestDiskFileBackendRoundTrip(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if _, err := d.FilePath("images", "abc123"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing file: got %v, want ErrNotFound", err)
	}
	content := []byte("spc1 image payload stand-in")
	if err := d.PutFile("images", "abc123", bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	path, err := d.FilePath("images", "abc123")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("file content %q, want %q", got, content)
	}

	// Overwrite replaces atomically.
	repl := []byte("replacement")
	if err := d.PutFile("images", "abc123", bytes.NewReader(repl)); err != nil {
		t.Fatal(err)
	}
	if got, _ = os.ReadFile(path); !bytes.Equal(got, repl) {
		t.Fatalf("after overwrite: %q, want %q", got, repl)
	}

	st := d.Stats()
	if st.FilePuts != 2 {
		t.Fatalf("FilePuts = %d, want 2", st.FilePuts)
	}
	if st.BytesWritten < uint64(len(content)+len(repl)) {
		t.Fatalf("BytesWritten = %d, too small", st.BytesWritten)
	}
}

func TestDiskFileBackendSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PutFile("images", "deadbeef", bytes.NewReader([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, err := d2.FilePath("images", "deadbeef"); err != nil {
		t.Fatalf("file lost across reopen: %v", err)
	}
}

func TestFileBackendRejectsHostileNames(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, bad := range [][2]string{
		{"", "k"}, {"images", ""}, {"..", "k"}, {"images", ".."},
		{"images", "a/b"}, {"images", `a\b`}, {"a/b", "k"}, {".", "k"},
		{"images", "k\x00x"},
	} {
		if err := d.PutFile(bad[0], bad[1], bytes.NewReader(nil)); err == nil {
			t.Errorf("PutFile(%q, %q) accepted", bad[0], bad[1])
		}
		if _, err := d.FilePath(bad[0], bad[1]); err == nil {
			t.Errorf("FilePath(%q, %q) accepted", bad[0], bad[1])
		}
	}
}
