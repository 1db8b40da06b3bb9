package serve

import (
	"container/list"
	"errors"
	"sync"

	"repro/internal/store"
	"repro/mine"
)

// CacheKey identifies one mining computation: the host graph's content
// fingerprint, the miner's registry name, and the fingerprint of the
// canonical Options serialization (mine.Options.Canonical — every
// semantic field, OnProgress excluded). Identical keys are identical
// computations under the façade's determinism contract, so a cached
// Result can stand in for a re-run.
type CacheKey struct {
	Host    string
	Miner   string
	Options string
}

// Key builds the cache key for a job specification.
func Key(hostFP, miner string, opts mine.Options) CacheKey {
	return CacheKey{Host: hostFP, Miner: miner, Options: FingerprintBytes([]byte(opts.Canonical()))}
}

// blobKey is the backend blob key for a cache key — the three frozen
// fingerprint components joined, each fixed-width hex so the join is
// injective.
func (k CacheKey) blobKey() string { return k.Host + "/" + k.Miner + "/" + k.Options }

// Cache is a bounded LRU result cache, optionally backed by a durable
// tier. Stored Results are shared by pointer between jobs and HTTP
// responses and are treated as immutable — the façade never mutates a
// returned Result, and nothing downstream may either. Only successful
// (nil-error) runs whose outcome is a deterministic function of the key
// are cached: cancelled runs' partials depend on where cancellation
// landed, and MaxWallClock-truncated results on machine load, so both
// must re-run (see Scheduler.runJob).
//
// With a disk, the LRU is the in-memory tier and every Put writes
// through: an L1 miss consults the disk, decodes the stored Result
// (mine.DecodeResult), and promotes it — so the effective capacity is
// the disk's, with the LRU bounding only the decoded working set.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[CacheKey]*list.Element
	lru     list.List // front = most recently used
	disk    *store.Disk
	hits    uint64
	misses  uint64
	// degraded counts lookups that failed in the backend and were served
	// as misses (the serve/cache/get failpoint, a durable tier's read
	// errors, an undecodable stored blob). Kept apart from misses: a miss
	// is a statement about the key ("nobody computed this"), a degrade
	// is a statement about the cache's health — folding them together
	// understates the real hit rate exactly when the cache is sick.
	degraded  uint64
	evictions uint64
	// backendHits is the subset of hits served from the durable tier
	// (L1 miss, backend hit, promoted); persistDrops counts Puts whose
	// durable write failed — the entry lives in L1 only and will not
	// survive a restart.
	backendHits  uint64
	persistDrops uint64
}

type cacheEntry struct {
	key CacheKey
	res *mine.Result
}

// NewCache returns a result cache whose in-memory LRU tier is bounded
// to capacity entries, writing through to disk, or memory-only when
// disk is nil; capacity <= 0 disables caching (every Get misses, Put is
// a no-op).
func NewCache(capacity int, disk *store.Disk) *Cache {
	c := &Cache{cap: capacity, entries: make(map[CacheKey]*list.Element), disk: disk}
	c.lru.Init()
	return c
}

// Get returns the cached Result for key, marking it most recently used.
// A failed backend read (the serve/cache/get failpoint; a durable
// tier's I/O errors) degrades to a miss: the cache is an optimization,
// never a dependency, so lookups cannot fail — only miss. Degrades are
// counted in CacheStats.Degraded, not Misses, so the hit-rate SLO stays
// honest while faults are injected or a backend is sick.
func (c *Cache) Get(key CacheKey) (*mine.Result, bool) {
	if c == nil || c.cap <= 0 {
		return nil, false
	}
	if err := fpCacheGet.Hit(); err != nil {
		c.mu.Lock()
		c.degraded++
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		res := el.Value.(*cacheEntry).res
		c.mu.Unlock()
		return res, true
	}
	if c.disk == nil {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Unlock()
	// L1 miss with a durable tier: read and decode outside the lock (a
	// disk read plus a full Result decode must not serialize the cache),
	// then promote. A racing Put of the same key is benign — both sides
	// hold an identical-by-determinism Result.
	blob, err := c.disk.Get(kindResult, key.blobKey())
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			c.misses++
		} else {
			c.degraded++
		}
		return nil, false
	}
	res, err := mine.DecodeResult(blob)
	if err != nil {
		// An undecodable blob (torn write survived CRC? codec drift?) is a
		// degrade, not a miss: the computation was done, we just can't
		// read it back. The job re-runs and its Put overwrites the blob.
		c.degraded++
		return nil, false
	}
	c.hits++
	c.backendHits++
	c.putLocked(key, res)
	return res, true
}

// Put stores a Result under key, evicting the least recently used entry
// when the cache is full. A failed backend write (the serve/cache/put
// failpoint, a durable tier's I/O errors) drops that tier's store
// silently — the result is still served from the job; only the O(1)
// repeat-query path (or its restart-durability) is lost.
func (c *Cache) Put(key CacheKey, res *mine.Result) {
	if c == nil || c.cap <= 0 || res == nil {
		return
	}
	if err := fpCachePut.Hit(); err != nil {
		return
	}
	c.mu.Lock()
	c.putLocked(key, res)
	c.mu.Unlock()
	if c.disk == nil {
		return
	}
	// Write through outside the lock; the encode is CPU-bound and the
	// append fsyncs.
	blob, err := mine.EncodeResult(res)
	if err == nil {
		err = c.disk.Put(kindResult, key.blobKey(), blob)
	}
	if err != nil {
		c.mu.Lock()
		c.persistDrops++
		c.mu.Unlock()
	}
}

// putLocked inserts or refreshes the L1 entry for key. Caller holds mu.
func (c *Cache) putLocked(key CacheKey, res *mine.Result) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, res: res})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
// Degraded counts backend-failed lookups served as misses; the true
// hit rate is Hits / (Hits + Misses), with Degraded reported beside it
// rather than polluting either term. BackendHits ⊆ Hits; PersistDrops
// counts results that reached L1 but not the durable tier.
type CacheStats struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Degraded     uint64 `json:"degraded"`
	Evictions    uint64 `json:"evictions"`
	BackendHits  uint64 `json:"backend_hits"`
	PersistDrops uint64 `json:"persist_drops"`
	Entries      int    `json:"entries"`
	Cap          int    `json:"capacity"`
}

// Stats snapshots hit/miss/degrade/eviction counters and occupancy.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses,
		Degraded: c.degraded, Evictions: c.evictions,
		BackendHits: c.backendHits, PersistDrops: c.persistDrops,
		Entries: c.lru.Len(), Cap: c.cap,
	}
}
