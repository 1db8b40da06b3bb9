package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/fault"
)

// reopen closes d and opens the same directory again.
func reopen(t *testing.T, d *Disk) *Disk {
	t.Helper()
	dir := d.dir
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	nd, err := OpenDisk(dir)
	if err != nil {
		t.Fatalf("OpenDisk(%s): %v", dir, err)
	}
	return nd
}

func TestDiskReopenRestoresEverything(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := d.Put("graphs", fmt.Sprintf("g%d", i), bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Put("results", "r0", []byte("result")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Append([]byte(fmt.Sprintf("job-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	d = reopen(t, d) // clean Close → sidecar index path
	defer d.Close()
	if _, err := os.Stat(filepath.Join(d.dir, idxName)); err != nil {
		t.Fatalf("sidecar index not written at Close: %v", err)
	}
	keys, _ := d.List("graphs")
	if fmt.Sprint(keys) != "[g0 g1 g2 g3]" {
		t.Fatalf("graphs after reopen = %v, want [g0 g1 g2 g3]", keys)
	}
	for _, k := range []string{"g0", "g1", "g2", "g3"} {
		got, err := d.Get("graphs", k)
		if err != nil {
			t.Fatalf("Get(%s) after reopen: %v", k, err)
		}
		if len(got) != 64 {
			t.Fatalf("Get(%s) = %d bytes, want 64", k, len(got))
		}
	}
	recs, err := d.Journal()
	if err != nil || len(recs) != 3 {
		t.Fatalf("journal after reopen = %d records (%v), want 3", len(recs), err)
	}
	st := d.Stats()
	if st.RecoveredBlobs != 5 || st.RecoveredJournalRecords != 3 {
		t.Fatalf("recovery stats = %+v, want 5 blobs + 3 journal records", st)
	}
	if st.RecoveryTruncations != 0 {
		t.Fatalf("clean reopen counted %d truncations, want 0", st.RecoveryTruncations)
	}
}

// crash simulates a process dying without Close: the file handle is
// closed directly, leaving whatever sidecar (if any) a previous clean
// Close wrote — now stale.
func crash(t *testing.T, d *Disk) string {
	t.Helper()
	if err := d.f.Close(); err != nil {
		t.Fatal(err)
	}
	return d.dir
}

func TestDiskCrashWithoutCloseScansLog(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("g", "a", []byte("one")); err != nil {
		t.Fatal(err)
	}
	d = reopen(t, d) // writes a sidecar at size S
	if err := d.Put("g", "b", []byte("two")); err != nil {
		t.Fatal(err)
	}
	dir := crash(t, d) // sidecar now stale (describes size S, log is larger)

	nd, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	keys, _ := nd.List("g")
	if fmt.Sprint(keys) != "[a b]" {
		t.Fatalf("after crash-reopen List = %v, want [a b] (stale sidecar must be ignored)", keys)
	}
	if got, err := nd.Get("g", "b"); err != nil || string(got) != "two" {
		t.Fatalf("Get(b) = %q, %v", got, err)
	}
}

func TestDiskTornTailTruncated(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Put("g", fmt.Sprintf("k%d", i), bytes.Repeat([]byte("x"), 100)); err != nil {
			t.Fatal(err)
		}
	}
	goodSize := d.size
	dir := crash(t, d)

	// Simulate a crash mid-append: a frame header claiming a payload the
	// write never finished.
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, frameHeaderSize+7)
	copy(torn, []byte{0x53, 0x50, 0x46, 0x52}) // valid magic ("SPFR")
	torn[4] = 200                              // claims a 200-byte payload; only 7 follow
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	nd, err := OpenDisk(dir)
	if err != nil {
		t.Fatalf("OpenDisk over torn tail: %v", err)
	}
	defer nd.Close()
	if got := nd.Stats().RecoveryTruncations; got != 1 {
		t.Fatalf("RecoveryTruncations = %d, want 1", got)
	}
	if nd.size != goodSize {
		t.Fatalf("recovered size = %d, want %d (torn tail truncated)", nd.size, goodSize)
	}
	keys, _ := nd.List("g")
	if len(keys) != 3 {
		t.Fatalf("List after torn-tail recovery = %v, want 3 intact blobs", keys)
	}
	// The log is writable again and a further reopen is clean.
	if err := nd.Put("g", "k3", []byte("after")); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	nd = reopen(t, nd)
	defer nd.Close()
	if got := nd.Stats().RecoveryTruncations; got != 0 {
		t.Fatalf("second reopen counted %d truncations, want 0", got)
	}
	if got, err := nd.Get("g", "k3"); err != nil || string(got) != "after" {
		t.Fatalf("Get(k3) = %q, %v", got, err)
	}
}

func TestDiskTornTailMidFrame(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("g", "keep", []byte("intact")); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("g", "lost", bytes.Repeat([]byte("y"), 500)); err != nil {
		t.Fatal(err)
	}
	truncAt := d.size - 5 // tear the last frame's final bytes off
	dir := crash(t, d)
	if err := os.Truncate(filepath.Join(dir, logName), truncAt); err != nil {
		t.Fatal(err)
	}

	nd, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if got := nd.Stats().RecoveryTruncations; got != 1 {
		t.Fatalf("RecoveryTruncations = %d, want 1", got)
	}
	if got, err := nd.Get("g", "keep"); err != nil || string(got) != "intact" {
		t.Fatalf("intact prefix lost: Get(keep) = %q, %v", got, err)
	}
	if _, err := nd.Get("g", "lost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn blob must be gone, got %v", err)
	}
}

func TestDiskCorruptSidecarFallsBackToScan(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("g", "a", []byte("data")); err != nil {
		t.Fatal(err)
	}
	d = reopen(t, d)
	dir := crash(t, d)
	if err := os.WriteFile(filepath.Join(dir, idxName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	nd, err := OpenDisk(dir)
	if err != nil {
		t.Fatalf("OpenDisk with corrupt sidecar: %v", err)
	}
	defer nd.Close()
	if got, err := nd.Get("g", "a"); err != nil || string(got) != "data" {
		t.Fatalf("Get after corrupt-sidecar fallback = %q, %v", got, err)
	}
}

func TestDiskFailpoints(t *testing.T) {
	defer fault.DisarmAll()
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put("g", "a", []byte("pre")); err != nil {
		t.Fatal(err)
	}

	fpDiskPut.Arm(fault.Spec{Kind: fault.KindError, Msg: "injected put"})
	if err := d.Put("g", "b", []byte("x")); !fault.IsInjected(err) {
		t.Fatalf("Put under store/disk/put: want injected error, got %v", err)
	}
	if err := d.Append([]byte("rec")); !fault.IsInjected(err) {
		t.Fatalf("Append under store/disk/put: want injected error, got %v", err)
	}
	fpDiskPut.Disarm()

	fpDiskGet.Arm(fault.Spec{Kind: fault.KindError, Msg: "injected get"})
	if _, err := d.Get("g", "a"); !fault.IsInjected(err) {
		t.Fatalf("Get under store/disk/get: want injected error, got %v", err)
	}
	if _, err := d.GetPrefix("g", "a", 1); !fault.IsInjected(err) {
		t.Fatalf("GetPrefix under store/disk/get: want injected error, got %v", err)
	}
	if _, err := d.Journal(); !fault.IsInjected(err) {
		t.Fatalf("Journal under store/disk/get: want injected error, got %v", err)
	}
	fpDiskGet.Disarm()

	// A sync fault fails the mutation without advancing the committed
	// size: the index never learns of the blob, and the next successful
	// append overwrites the torn bytes.
	fpDiskSync.Arm(fault.Spec{Kind: fault.KindError, Msg: "injected sync"})
	if err := d.Put("g", "c", []byte("y")); !fault.IsInjected(err) {
		t.Fatalf("Put under store/disk/sync: want injected error, got %v", err)
	}
	fpDiskSync.Disarm()
	if _, err := d.Get("g", "c"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("blob committed despite failed sync: %v", err)
	}
	if err := d.Put("g", "c", []byte("y2")); err != nil {
		t.Fatalf("Put after sync fault cleared: %v", err)
	}
	if got, err := d.Get("g", "c"); err != nil || string(got) != "y2" {
		t.Fatalf("Get(c) = %q, %v", got, err)
	}
	if got, err := d.Get("g", "a"); err != nil || string(got) != "pre" {
		t.Fatalf("pre-fault blob damaged: %q, %v", got, err)
	}
}

// TestDiskSidecarOverflowFallsBackToScan: a sidecar ref whose Off+Len
// wraps past math.MaxInt64 must be rejected like any other out-of-range
// ref, so the open falls back to the recovery scan. Accepting it made
// the first Get (or Journal read) allocate a frame of Len bytes and
// panic.
func TestDiskSidecarOverflowFallsBackToScan(t *testing.T) {
	hostile := frameRef{Off: 1, Len: math.MaxInt64}
	for _, tc := range []struct {
		name   string
		tamper func(sc *sidecar)
	}{
		{"blob", func(sc *sidecar) { sc.Kinds["g"][0].Ref = hostile }},
		{"journal", func(sc *sidecar) { sc.Journal[0] = hostile }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := OpenDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Put("g", "a", []byte("blob bytes")); err != nil {
				t.Fatal(err)
			}
			if err := d.Append([]byte("record")); err != nil {
				t.Fatal(err)
			}
			d = reopen(t, d)
			dir := crash(t, d)
			idx := filepath.Join(dir, idxName)
			raw, err := os.ReadFile(idx)
			if err != nil {
				t.Fatal(err)
			}
			var sc sidecar
			if err := json.Unmarshal(raw, &sc); err != nil {
				t.Fatal(err)
			}
			tc.tamper(&sc)
			if raw, err = json.Marshal(sc); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(idx, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			nd, err := OpenDisk(dir)
			if err != nil {
				t.Fatalf("OpenDisk with overflowing sidecar ref: %v", err)
			}
			defer nd.Close()
			if got, err := nd.Get("g", "a"); err != nil || string(got) != "blob bytes" {
				t.Fatalf("Get after fallback = %q, %v; want the blob intact", got, err)
			}
			if recs, err := nd.Journal(); err != nil || len(recs) != 1 || string(recs[0]) != "record" {
				t.Fatalf("Journal after fallback = %q, %v; want [record]", recs, err)
			}
		})
	}
}

// diskSeeds returns the log and sidecar of a small data dir holding
// overwritten and live blobs, an empty one, and journal records, closed
// cleanly.
func diskSeeds(f *testing.F) (log, idx []byte) {
	f.Helper()
	dir := f.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		f.Fatal(err)
	}
	for i, op := range []func() error{
		func() error { return d.Put("graphs", "g0", []byte("first")) },
		func() error { return d.Put("results", "r0", bytes.Repeat([]byte{7}, 40)) },
		func() error { return d.Append([]byte(`{"type":"job/v1"}`)) },
		func() error { return d.Put("graphs", "g1", nil) },
		func() error { return d.Put("graphs", "g0", []byte("second")) },
		func() error { return d.Append([]byte("tail")) },
	} {
		if err := op(); err != nil {
			f.Fatalf("seed op %d: %v", i, err)
		}
	}
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	if log, err = os.ReadFile(filepath.Join(dir, logName)); err != nil {
		f.Fatal(err)
	}
	if idx, err = os.ReadFile(filepath.Join(dir, idxName)); err != nil {
		f.Fatal(err)
	}
	return log, idx
}

// FuzzOpenDisk opens a data dir holding hostile log and sidecar bytes.
// OpenDisk may refuse it, but once it opens, every List, every Get of
// an indexed key and the Journal read return data or an error, never
// panic; every GetPrefix errors exactly when Get does and otherwise
// returns the head of Get's bytes; and a clean Close followed by a
// reopen restores the same index.
func FuzzOpenDisk(f *testing.F) {
	log, idx := diskSeeds(f)
	f.Add(log, idx)
	f.Add(log, []byte(nil))      // no sidecar: recovery scan
	f.Add(log[:len(log)-5], idx) // torn tail, stale sidecar
	f.Add(append(log, "SPFR\x40\x00\x00\x00torn"...), []byte(nil))
	f.Add(log, []byte("{not json"))
	f.Add(log, bytes.Replace(idx, []byte(`"len":`), []byte(`"len":9223372036854775807,"x":`), 1))
	f.Add(log, bytes.Replace(idx, []byte(`"off":0`), []byte(`"off":-1`), 1))
	f.Add([]byte(nil), []byte(`{"version":1,"log_size":0,"kinds":{"g":[{"key":"a","ref":{"off":1,"len":9223372036854775807}}]}}`))
	f.Add([]byte(nil), []byte(nil))

	f.Fuzz(func(t *testing.T, log, idx []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		if idx != nil {
			if err := os.WriteFile(filepath.Join(dir, idxName), idx, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		d, err := OpenDisk(dir)
		if err != nil {
			return
		}
		listing := readAll(t, d)
		d = reopen(t, d)
		defer d.Close()
		if again := readAll(t, d); again != listing {
			t.Fatalf("reopen changed the index:\n%s\nwant\n%s", again, listing)
		}
	})
}

// readAll lists every kind, Gets every listed key and reads the
// journal, rendering what each returned (an error counts as a result).
// It also checks each key's GetPrefix against its Get.
func readAll(t *testing.T, d *Disk) string {
	t.Helper()
	d.mu.Lock()
	kinds := make([]string, 0, len(d.kinds))
	for kind := range d.kinds {
		kinds = append(kinds, kind)
	}
	d.mu.Unlock()
	sort.Strings(kinds)
	var b strings.Builder
	for _, kind := range kinds {
		keys, err := d.List(kind)
		fmt.Fprintf(&b, "%q: %q %v\n", kind, keys, err)
		for _, key := range keys {
			data, err := d.Get(kind, key)
			fmt.Fprintf(&b, "  %q: %x %v\n", key, data, err != nil)
			for _, n := range []int{0, 3, len(data) + 1} {
				p, perr := d.GetPrefix(kind, key, n)
				if (perr != nil) != (err != nil) {
					t.Fatalf("%q/%q: GetPrefix(%d) error %v, Get error %v", kind, key, n, perr, err)
				}
				if err == nil && !bytes.Equal(p, data[:min(n, len(data))]) {
					t.Fatalf("%q/%q: GetPrefix(%d) = %x, Get = %x", kind, key, n, p, data)
				}
			}
		}
	}
	recs, err := d.Journal()
	fmt.Fprintf(&b, "journal: %x %v\n", recs, err != nil)
	return b.String()
}
