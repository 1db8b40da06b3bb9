package store

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// backends returns a fresh Disk under the subtest name the contract
// tests below run it as.
func backends(t *testing.T) map[string]*Disk {
	t.Helper()
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return map[string]*Disk{"disk": d}
}

func TestBackendBlobRoundTrip(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := b.Get("g", "a"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get on empty store: want ErrNotFound, got %v", err)
			}
			blobs := map[string][]byte{
				"a": []byte("alpha"),
				"b": {},
				"c": bytes.Repeat([]byte{0xde, 0xad}, 1000),
			}
			for _, k := range []string{"a", "b", "c"} {
				if err := b.Put("g", k, blobs[k]); err != nil {
					t.Fatalf("Put(%q): %v", k, err)
				}
			}
			for k, want := range blobs {
				got, err := b.Get("g", k)
				if err != nil {
					t.Fatalf("Get(%q): %v", k, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("Get(%q) = %d bytes, want %d", k, len(got), len(want))
				}
			}
			// Kinds are namespaces: the same key in another kind is absent.
			if _, err := b.Get("other", "a"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get in wrong kind: want ErrNotFound, got %v", err)
			}
		})
	}
}

func TestBackendListOrderAndOverwrite(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for _, k := range []string{"x", "y", "z"} {
				if err := b.Put("g", k, []byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			// Overwriting keeps the original position; the new bytes win.
			if err := b.Put("g", "x", []byte("x2")); err != nil {
				t.Fatal(err)
			}
			keys, err := b.List("g")
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(keys) != "[x y z]" {
				t.Fatalf("List = %v, want [x y z]", keys)
			}
			got, err := b.Get("g", "x")
			if err != nil || string(got) != "x2" {
				t.Fatalf("Get after overwrite = %q, %v; want \"x2\"", got, err)
			}
			if keys, _ := b.List("missing"); len(keys) != 0 {
				t.Fatalf("List of unknown kind = %v, want empty", keys)
			}
		})
	}
}

func TestBackendDelete(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for _, k := range []string{"x", "y", "z"} {
				if err := b.Put("g", k, []byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Delete("g", "y"); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Get("g", "y"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after Delete: want ErrNotFound, got %v", err)
			}
			keys, _ := b.List("g")
			if fmt.Sprint(keys) != "[x z]" {
				t.Fatalf("List after Delete = %v, want [x z]", keys)
			}
			// Deleting an absent key (and an absent kind) is a no-op.
			if err := b.Delete("g", "y"); err != nil {
				t.Fatal(err)
			}
			if err := b.Delete("nope", "y"); err != nil {
				t.Fatal(err)
			}
			// Re-Put after Delete re-adds at the end.
			if err := b.Put("g", "y", []byte("y2")); err != nil {
				t.Fatal(err)
			}
			keys, _ = b.List("g")
			if fmt.Sprint(keys) != "[x z y]" {
				t.Fatalf("List after re-Put = %v, want [x z y]", keys)
			}
		})
	}
}

func TestBackendJournal(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			recs, err := b.Journal()
			if err != nil || len(recs) != 0 {
				t.Fatalf("empty journal: %v, %v", recs, err)
			}
			for i := 0; i < 5; i++ {
				if err := b.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			recs, err = b.Journal()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 5 {
				t.Fatalf("Journal returned %d records, want 5", len(recs))
			}
			for i, r := range recs {
				if want := fmt.Sprintf("rec-%d", i); string(r) != want {
					t.Fatalf("record %d = %q, want %q", i, r, want)
				}
			}
		})
	}
}

func TestBackendStatsCount(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := b.Put("g", "k", []byte("data")); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Get("g", "k"); err != nil {
				t.Fatal(err)
			}
			if err := b.Append([]byte("rec")); err != nil {
				t.Fatal(err)
			}
			st := b.Stats()
			if st.Puts != 1 || st.Gets != 1 || st.JournalAppends != 1 {
				t.Fatalf("Stats = %+v, want puts/gets/appends = 1", st)
			}
			if st.BytesWritten == 0 || st.BytesRead == 0 {
				t.Fatalf("Stats = %+v, want nonzero byte counters", st)
			}
		})
	}
}
