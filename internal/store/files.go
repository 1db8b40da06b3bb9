package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

const filesDirName = "files"

// checkFileName rejects (kind, key) pairs that could escape the files
// directory. Serving-layer keys are hex fingerprints and kinds are
// fixed literals, so anything else is a programming error surfaced
// loudly rather than a traversal waiting to happen.
func checkFileName(kind, key string) error {
	for _, s := range [2]string{kind, key} {
		if s == "" || s == "." || s == ".." ||
			strings.ContainsAny(s, "/\\") || strings.ContainsRune(s, 0) {
			return fmt.Errorf("store: bad file name %q/%q", kind, key)
		}
	}
	return nil
}

func (d *Disk) filePath(kind, key string) string {
	return filepath.Join(d.dir, filesDirName, kind, key)
}

// PutFile atomically writes wt's content under dir/files/<kind>/<key>,
// replacing any previous file: temp file in the same directory, fsync,
// rename, so a crash leaves either the old file or the new one, never a
// torn one. Shares the log's put/sync failpoints so chaos suites cover
// the file tier too.
//
// Files are whole-file artifacts outside the segment log, addressable
// by path so callers can mmap them in place. They are a cache-like side
// tier, not part of the log's crash-safety story: a file's existence is
// not journaled, so recovery must tolerate a missing or stale file for
// a key the log knows, which the serving layer does by re-verifying
// content fingerprints before trusting a mapped image.
func (d *Disk) PutFile(kind, key string, wt io.WriterTo) error {
	if err := checkFileName(kind, key); err != nil {
		return err
	}
	if err := fpDiskPut.Hit(); err != nil {
		return err
	}
	path := d.filePath(kind, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: put file %s/%s: %w", kind, key, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key+".tmp*")
	if err != nil {
		return fmt.Errorf("store: put file %s/%s: %w", kind, key, err)
	}
	n, err := wt.WriteTo(tmp)
	if err == nil {
		if err = fpDiskSync.Hit(); err == nil {
			if err = tmp.Sync(); err == nil {
				d.stats.fsyncs.Add(1)
			}
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put file %s/%s: %w", kind, key, err)
	}
	d.stats.filePuts.Add(1)
	d.stats.bytesWritten.Add(uint64(n))
	return nil
}

// FilePath returns the on-disk path for (kind, key), stat'ing it so a
// missing file surfaces as ErrNotFound here rather than as a confusing
// open failure later.
func (d *Disk) FilePath(kind, key string) (string, error) {
	if err := checkFileName(kind, key); err != nil {
		return "", err
	}
	if err := fpDiskGet.Hit(); err != nil {
		return "", err
	}
	path := d.filePath(kind, key)
	if _, err := os.Stat(path); err != nil {
		if os.IsNotExist(err) {
			return "", fmt.Errorf("%w: file %s/%s", ErrNotFound, kind, key)
		}
		return "", fmt.Errorf("store: file %s/%s: %w", kind, key, err)
	}
	return path, nil
}
