package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Disk is the durable tier: a single append-only segment log of
// CRC-framed records plus an in-memory index rebuilt at Open — from a
// sidecar index file when it matches the log, by a full recovery scan
// otherwise. Every mutation is one framed append followed by an fsync,
// so a crash can only lose (or tear) the record being written; the
// recovery scan truncates a torn tail at the first frame whose header,
// length, or checksum does not verify, restoring the longest valid
// prefix.
//
// A nil-error return from Put or Append means the mutation is on disk.
// Slices passed to them may be reused by the caller once they return;
// slices returned by Get, GetPrefix and Journal are freshly read and
// owned by the caller. Every read re-verifies its frame's CRC;
// GetPrefix verifies the whole frame but returns, and holds in memory,
// only the head of the blob. A Disk is safe for concurrent use.
//
// Frame layout (all integers little-endian):
//
//	u32 magic "SPFR" | u32 payload length | u32 CRC-32C(payload) | payload
//
// Payload layout:
//
//	u8 op (1 blob-put, 3 journal-append; the recovery scan skips any
//	       other op)
//	uvarint kind length | kind | uvarint key length | key   (empty for journal)
//	data
//
// The log is only ever appended to: a blob is never deleted, and space
// from overwritten blobs is not reclaimed (log compaction is out of
// scope — see the package comment of internal/serve for the
// serving-tier bounds that keep the live set small).
//
// A Disk must have a single owner: two processes opening the same
// directory corrupt each other (no lock file is taken).
type Disk struct {
	dir string

	mu   sync.Mutex // guards writes, size, and the index
	f    *os.File
	size int64 // committed log size; bytes past it are garbage

	kinds   map[string]*diskKind
	journal []frameRef

	stats diskStats
	buf   []byte // frame assembly scratch, reused across writes
}

// diskStats is the counter block behind Stats(): wait-free atomics so
// hot paths never serialize on a stats lock.
type diskStats struct {
	puts, gets, appends     atomic.Uint64
	filePuts                atomic.Uint64
	bytesWritten, bytesRead atomic.Uint64
	fsyncs                  atomic.Uint64
	recoveryTruncations     atomic.Uint64
	recoveredBlobs          atomic.Uint64
	recoveredJournal        atomic.Uint64
}

type diskKind struct {
	refs  map[string]frameRef
	order []string
}

// frameRef locates one whole frame (header included) in the log.
type frameRef struct {
	Off int64 `json:"off"`
	Len int64 `json:"len"`
}

// within reports whether r can be a frame of a log of logSize bytes.
// The bound is Len > logSize-Off, never Off+Len > logSize: a hostile
// sidecar's Off+Len can wrap past math.MaxInt64 and pass the sum check.
func (r frameRef) within(logSize int64) bool {
	return r.Off >= 0 && r.Len >= frameHeaderSize && r.Len <= logSize-r.Off
}

const (
	logName = "store.log"
	idxName = "store.idx"

	frameMagic      = 0x52465053 // "SPFR" little-endian
	frameHeaderSize = 12
	// maxFramePayload bounds a single record; a header claiming more is
	// treated as torn/corrupt rather than attempted.
	maxFramePayload = 1 << 30

	opBlobPut = 1
	opJournal = 3
)

// castagnoli is the CRC-32C table; Castagnoli detects short bursts
// better than IEEE and is hardware-accelerated on common platforms.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// OpenDisk opens (creating if needed) the durable tier rooted at dir.
// If a sidecar index matching the log's exact size exists the index
// loads from it; otherwise the log is scanned from the start and a torn
// tail — a crash mid-append — is truncated away, counted in
// Stats.RecoveryTruncations.
func OpenDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	d := &Disk{dir: dir, f: f, kinds: make(map[string]*diskKind)}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	if !d.loadSidecar(fi.Size()) {
		if err := d.scan(fi.Size()); err != nil {
			f.Close()
			return nil, err
		}
	}
	var blobs uint64
	for _, k := range d.kinds {
		blobs += uint64(len(k.order))
	}
	d.stats.recoveredBlobs.Store(blobs)
	d.stats.recoveredJournal.Store(uint64(len(d.journal)))
	return d, nil
}

// sidecar is the JSON index written at Close: the committed log size it
// describes plus every live blob and journal frame. Any mismatch with
// the log on disk (missing file, unparseable, stale size) simply falls
// back to the recovery scan — the sidecar is a startup optimization,
// never a source of truth.
type sidecar struct {
	Version int                       `json:"version"`
	LogSize int64                     `json:"log_size"`
	Kinds   map[string][]sidecarEntry `json:"kinds"`
	Journal []frameRef                `json:"journal"`
}

type sidecarEntry struct {
	Key string   `json:"key"`
	Ref frameRef `json:"ref"`
}

// loadSidecar tries to restore the index from the sidecar; it reports
// success only when the sidecar exactly describes a log of logSize
// bytes (a crash after further appends leaves a stale sidecar, detected
// here by the size mismatch).
func (d *Disk) loadSidecar(logSize int64) bool {
	raw, err := os.ReadFile(filepath.Join(d.dir, idxName))
	if err != nil {
		return false
	}
	var sc sidecar
	if json.Unmarshal(raw, &sc) != nil || sc.Version != 1 || sc.LogSize != logSize {
		return false
	}
	// Build aside and install only a wholly valid index, so a rejected
	// sidecar leaves nothing behind for the recovery scan to build on.
	kinds := make(map[string]*diskKind, len(sc.Kinds))
	for kind, entries := range sc.Kinds {
		k := &diskKind{refs: make(map[string]frameRef, len(entries))}
		for _, e := range entries {
			if _, dup := k.refs[e.Key]; dup || !e.Ref.within(logSize) {
				return false
			}
			k.refs[e.Key] = e.Ref
			k.order = append(k.order, e.Key)
		}
		kinds[kind] = k
	}
	for _, ref := range sc.Journal {
		if !ref.within(logSize) {
			return false
		}
	}
	d.kinds, d.journal, d.size = kinds, sc.Journal, logSize
	return true
}

// scan replays the log from the start, rebuilding the index, and
// truncates a torn tail: the first frame that fails to verify — short
// header, bad magic, impossible length, short payload, CRC mismatch —
// ends the valid prefix, and everything from there on is discarded.
func (d *Disk) scan(logSize int64) error {
	var off int64
	hdr := make([]byte, frameHeaderSize)
	var payload []byte
	for off+frameHeaderSize <= logSize {
		if _, err := d.f.ReadAt(hdr, off); err != nil {
			return fmt.Errorf("store: scan %s: %w", d.dir, err)
		}
		if binary.LittleEndian.Uint32(hdr[0:4]) != frameMagic {
			break
		}
		plen := int64(binary.LittleEndian.Uint32(hdr[4:8]))
		if plen > maxFramePayload || off+frameHeaderSize+plen > logSize {
			break
		}
		if int64(cap(payload)) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := d.f.ReadAt(payload, off+frameHeaderSize); err != nil {
			return fmt.Errorf("store: scan %s: %w", d.dir, err)
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[8:12]) {
			break
		}
		ref := frameRef{Off: off, Len: frameHeaderSize + plen}
		op, kind, key, _, err := parsePayload(payload)
		if err != nil {
			break
		}
		d.applyScanned(op, kind, key, ref)
		off += ref.Len
	}
	if off < logSize {
		if err := d.f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncate torn tail of %s: %w", d.dir, err)
		}
		if err := d.f.Sync(); err != nil {
			return fmt.Errorf("store: truncate torn tail of %s: %w", d.dir, err)
		}
		d.stats.recoveryTruncations.Add(1)
	}
	d.size = off
	return nil
}

// applyScanned replays one verified frame into the index; a frame of
// any other op is skipped.
func (d *Disk) applyScanned(op byte, kind, key string, ref frameRef) {
	switch op {
	case opBlobPut:
		k := d.kindLocked(kind)
		if _, existed := k.refs[key]; !existed {
			k.order = append(k.order, key)
		}
		k.refs[key] = ref
	case opJournal:
		d.journal = append(d.journal, ref)
	}
}

func (d *Disk) kindLocked(name string) *diskKind {
	k, ok := d.kinds[name]
	if !ok {
		k = &diskKind{refs: make(map[string]frameRef)}
		d.kinds[name] = k
	}
	return k
}

// buildPayload assembles op | kind | key | data into d.buf (after the
// frame header, which appendFrame fills in); callers hold d.mu.
func (d *Disk) buildPayload(op byte, kind, key string, data []byte) []byte {
	buf := d.buf[:0]
	buf = append(buf, make([]byte, frameHeaderSize)...) // header placeholder
	buf = append(buf, op)
	buf = binary.AppendUvarint(buf, uint64(len(kind)))
	buf = append(buf, kind...)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = append(buf, data...)
	d.buf = buf
	return buf
}

// parsePayload is buildPayload's inverse.
func parsePayload(p []byte) (op byte, kind, key string, data []byte, err error) {
	if len(p) < 1 {
		return 0, "", "", nil, errors.New("store: empty frame payload")
	}
	op, p = p[0], p[1:]
	readStr := func() (string, bool) {
		n, w := binary.Uvarint(p)
		if w <= 0 || n > uint64(len(p)-w) {
			return "", false
		}
		s := string(p[w : w+int(n)])
		p = p[w+int(n):]
		return s, true
	}
	var ok bool
	if kind, ok = readStr(); !ok {
		return 0, "", "", nil, errors.New("store: truncated frame payload (kind)")
	}
	if key, ok = readStr(); !ok {
		return 0, "", "", nil, errors.New("store: truncated frame payload (key)")
	}
	return op, kind, key, p, nil
}

// appendFrame frames the payload sitting in frame[frameHeaderSize:],
// writes it at the committed tail, and fsyncs. Only after a successful
// sync does the committed size advance — a failed or torn write leaves
// garbage past d.size that the next append overwrites (and that a
// post-crash recovery scan truncates). Callers hold d.mu.
func (d *Disk) appendFrame(frame []byte) (frameRef, error) {
	payload := frame[frameHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], frameMagic)
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[8:12], crc32.Checksum(payload, castagnoli))
	if _, err := d.f.WriteAt(frame, d.size); err != nil {
		return frameRef{}, err
	}
	if err := d.fsync(); err != nil {
		return frameRef{}, err
	}
	ref := frameRef{Off: d.size, Len: int64(len(frame))}
	d.size += ref.Len
	d.stats.bytesWritten.Add(uint64(ref.Len))
	return ref, nil
}

// fsync flushes the log, counting the sync; the store/disk/sync
// failpoint injects sync-layer failures here.
func (d *Disk) fsync() error {
	if err := fpDiskSync.Hit(); err != nil {
		return err
	}
	if err := d.f.Sync(); err != nil {
		return err
	}
	d.stats.fsyncs.Add(1)
	return nil
}

// Put durably stores data under (kind, key): one framed append + fsync.
func (d *Disk) Put(kind, key string, data []byte) error {
	if err := fpDiskPut.Hit(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ref, err := d.appendFrame(d.buildPayload(opBlobPut, kind, key, data))
	if err != nil {
		return fmt.Errorf("store: put %s/%s: %w", kind, key, err)
	}
	k := d.kindLocked(kind)
	if _, existed := k.refs[key]; !existed {
		k.order = append(k.order, key)
	}
	k.refs[key] = ref
	d.stats.puts.Add(1)
	return nil
}

// Get reads the blob under (kind, key), re-verifying the frame's CRC on
// every read — a blob that rots on disk surfaces as an I/O error, never
// as silently wrong bytes.
func (d *Disk) Get(kind, key string) ([]byte, error) {
	if err := fpDiskGet.Hit(); err != nil {
		return nil, err
	}
	ref, err := d.lookup(kind, key)
	if err != nil {
		return nil, err
	}
	_, _, _, data, err := d.readFrame(ref)
	if err != nil {
		return nil, fmt.Errorf("store: get %s/%s: %w", kind, key, err)
	}
	return data, nil
}

// GetPrefix is Get for a caller that needs only the head of a blob: it
// returns a fresh copy of the blob's first n bytes (all of it when the
// blob is shorter). The whole frame is still read and its CRC verified,
// through a buffer of at most prefixChunk bytes, so a large blob is never
// held in memory; the read counts as one get of the frame's bytes, as
// Get's does, and GetPrefix fails exactly when Get would.
func (d *Disk) GetPrefix(kind, key string, n int) ([]byte, error) {
	if err := fpDiskGet.Hit(); err != nil {
		return nil, err
	}
	ref, err := d.lookup(kind, key)
	if err != nil {
		return nil, err
	}
	data, err := d.readFramePrefix(ref, max(n, 0))
	if err != nil {
		return nil, fmt.Errorf("store: get %s/%s: %w", kind, key, err)
	}
	return data, nil
}

// prefixChunk is the size of the buffer GetPrefix streams a frame
// through.
const prefixChunk = 64 << 10

// lookup returns the frame indexed under (kind, key).
func (d *Disk) lookup(kind, key string) (frameRef, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if k, ok := d.kinds[kind]; ok {
		if ref, ok := k.refs[key]; ok {
			return ref, nil
		}
	}
	return frameRef{}, fmt.Errorf("%w: %s/%s", ErrNotFound, kind, key)
}

// checkFrameHeader checks a frame header read at ref against ref and
// returns the payload CRC it records.
func checkFrameHeader(hdr []byte, ref frameRef) (uint32, error) {
	if binary.LittleEndian.Uint32(hdr[0:4]) != frameMagic {
		return 0, errors.New("bad frame magic")
	}
	if int64(binary.LittleEndian.Uint32(hdr[4:8])) != ref.Len-frameHeaderSize {
		return 0, errors.New("frame length mismatch")
	}
	return binary.LittleEndian.Uint32(hdr[8:12]), nil
}

// readFrame reads and verifies one whole frame. The returned data slice
// is freshly allocated and owned by the caller.
func (d *Disk) readFrame(ref frameRef) (op byte, kind, key string, data []byte, err error) {
	frame := make([]byte, ref.Len)
	if _, err := d.f.ReadAt(frame, ref.Off); err != nil {
		return 0, "", "", nil, err
	}
	crc, err := checkFrameHeader(frame, ref)
	if err != nil {
		return 0, "", "", nil, err
	}
	payload := frame[frameHeaderSize:]
	if crc32.Checksum(payload, castagnoli) != crc {
		return 0, "", "", nil, errors.New("frame CRC mismatch")
	}
	d.stats.bytesRead.Add(uint64(ref.Len))
	d.stats.gets.Add(1)
	return parsePayload(payload)
}

// readFramePrefix verifies one whole frame as readFrame does, streaming
// it through a buffer of at most prefixChunk bytes, and returns a fresh
// copy of at most the first n bytes of its data. The copy is taken from
// the first chunk; a frame whose op, kind, key and n data bytes do not
// fit in it is read whole instead.
func (d *Disk) readFramePrefix(ref frameRef, n int) ([]byte, error) {
	buf := make([]byte, min(ref.Len, prefixChunk))
	if _, err := d.f.ReadAt(buf, ref.Off); err != nil {
		return nil, err
	}
	want, err := checkFrameHeader(buf, ref)
	if err != nil {
		return nil, err
	}
	head := buf[frameHeaderSize:]
	_, _, _, data, perr := parsePayload(head)
	whole := int64(len(buf)) == ref.Len
	if !whole && (perr != nil || len(data) < n) {
		_, _, _, data, err := d.readFrame(ref)
		if err != nil {
			return nil, err
		}
		return bytes.Clone(data[:min(n, len(data))]), nil
	}
	var out []byte
	if perr == nil {
		out = bytes.Clone(data[:min(n, len(data))])
	}
	crc := crc32.Checksum(head, castagnoli)
	for off := int64(len(buf)); off < ref.Len; {
		chunk := buf[:min(ref.Len-off, int64(len(buf)))]
		if _, err := d.f.ReadAt(chunk, ref.Off+off); err != nil {
			return nil, err
		}
		crc = crc32.Update(crc, castagnoli, chunk)
		off += int64(len(chunk))
	}
	if crc != want {
		return nil, errors.New("frame CRC mismatch")
	}
	if perr != nil {
		return nil, perr
	}
	d.stats.bytesRead.Add(uint64(ref.Len))
	d.stats.gets.Add(1)
	return out, nil
}

// List returns the keys of a kind in first-Put order.
func (d *Disk) List(kind string) ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	k, ok := d.kinds[kind]
	if !ok {
		return nil, nil
	}
	return append([]string(nil), k.order...), nil
}

// Append durably adds one record to the metadata journal.
func (d *Disk) Append(rec []byte) error {
	if err := fpDiskPut.Hit(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ref, err := d.appendFrame(d.buildPayload(opJournal, "", "", rec))
	if err != nil {
		return fmt.Errorf("store: journal append: %w", err)
	}
	d.journal = append(d.journal, ref)
	d.stats.appends.Add(1)
	return nil
}

// Journal reads back every journal record in append order.
func (d *Disk) Journal() ([][]byte, error) {
	if err := fpDiskGet.Hit(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	refs := append([]frameRef(nil), d.journal...)
	d.mu.Unlock()
	out := make([][]byte, 0, len(refs))
	for _, ref := range refs {
		_, _, _, data, err := d.readFrame(ref)
		if err != nil {
			return nil, fmt.Errorf("store: journal read: %w", err)
		}
		out = append(out, data)
	}
	return out, nil
}

// Close writes the sidecar index (so the next Open skips the recovery
// scan) and closes the log. The sidecar is written to a temp file and
// renamed into place: a crash mid-Close leaves either the old sidecar
// (stale size → rescan) or the new one, never a half-written index that
// parses.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	sc := sidecar{Version: 1, LogSize: d.size, Kinds: make(map[string][]sidecarEntry, len(d.kinds))}
	for name, k := range d.kinds {
		entries := make([]sidecarEntry, 0, len(k.order))
		for _, key := range k.order {
			entries = append(entries, sidecarEntry{Key: key, Ref: k.refs[key]})
		}
		sc.Kinds[name] = entries
	}
	sc.Journal = d.journal
	raw, err := json.Marshal(sc)
	if err == nil {
		tmp := filepath.Join(d.dir, idxName+".tmp")
		if werr := os.WriteFile(tmp, raw, 0o644); werr == nil {
			err = os.Rename(tmp, filepath.Join(d.dir, idxName))
		} else {
			err = werr
		}
	}
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: close %s: %w", d.dir, err)
	}
	return nil
}

// Stats snapshots the I/O counters; a nil Disk reports zeros.
func (d *Disk) Stats() Stats {
	if d == nil {
		return Stats{}
	}
	s := &d.stats
	return Stats{
		Puts:                    s.puts.Load(),
		Gets:                    s.gets.Load(),
		JournalAppends:          s.appends.Load(),
		FilePuts:                s.filePuts.Load(),
		BytesWritten:            s.bytesWritten.Load(),
		BytesRead:               s.bytesRead.Load(),
		Fsyncs:                  s.fsyncs.Load(),
		RecoveryTruncations:     s.recoveryTruncations.Load(),
		RecoveredBlobs:          s.recoveredBlobs.Load(),
		RecoveredJournalRecords: s.recoveredJournal.Load(),
	}
}
