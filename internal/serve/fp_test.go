package serve

import (
	"errors"
	"strings"
	"testing"

	"repro/mine"
)

// TestFingerprintGraphStable: the fingerprint is a pure function of
// graph content — identical across rebuilds and input edge orders,
// different under any content change — and is frozen (wire-visible ids
// must not drift across releases).
func TestFingerprintGraphStable(t *testing.T) {
	labels := []mine.Label{3, 1, 2}
	edges := []mine.Edge{{U: 0, W: 1}, {U: 1, W: 2}}
	a := mine.FromEdges(labels, edges)
	b := mine.FromEdges(labels, []mine.Edge{{U: 1, W: 2}, {U: 1, W: 0}}) // reordered, reversed
	fa, fb := FingerprintGraph(a), FingerprintGraph(b)
	if fa != fb {
		t.Errorf("edge order changed the fingerprint: %s vs %s", fa, fb)
	}
	if len(fa) != 32 || strings.Trim(fa, "0123456789abcdef") != "" {
		t.Errorf("fingerprint %q is not 32 lowercase hex digits", fa)
	}
	const frozen = "9213dc1da6c2589d1d21967695bb13b7"
	if fa != frozen {
		t.Errorf("fingerprint construction drifted: got %s, frozen value %s", fa, frozen)
	}
	if fc := FingerprintGraph(mine.FromEdges([]mine.Label{3, 1, 7}, edges)); fc == fa {
		t.Error("label change did not change the fingerprint")
	}
	if fd := FingerprintGraph(mine.FromEdges(labels, edges[:1])); fd == fa {
		t.Error("edge removal did not change the fingerprint")
	}
}

func TestFingerprintBytes(t *testing.T) {
	a := FingerprintBytes([]byte("mine.Options/v1 minsupport=2"))
	b := FingerprintBytes([]byte("mine.Options/v1 minsupport=3"))
	if a == b {
		t.Error("distinct byte strings collided")
	}
	if a != FingerprintBytes([]byte("mine.Options/v1 minsupport=2")) {
		t.Error("fingerprint not deterministic")
	}
}

// TestKeyTracksOptionsSemantics: the cache key follows the canonical
// Options form — semantic fields distinguish, OnProgress does not.
func TestKeyTracksOptionsSemantics(t *testing.T) {
	base := mine.Options{MinSupport: 2, K: 5, Seed: 1}
	k1 := Key("host", "spidermine", base)
	withCB := base
	withCB.OnProgress = func(mine.ProgressEvent) {}
	if k2 := Key("host", "spidermine", withCB); k2 != k1 {
		t.Error("OnProgress changed the cache key")
	}
	diff := base
	diff.Seed = 2
	if k3 := Key("host", "spidermine", diff); k3 == k1 {
		t.Error("seed change did not change the cache key")
	}
	if k4 := Key("host", "moss", base); k4 == k1 {
		t.Error("miner name did not change the cache key")
	}
	if k5 := Key("host2", "spidermine", base); k5 == k1 {
		t.Error("host fingerprint did not change the cache key")
	}
}

func TestStoreDedupesByContent(t *testing.T) {
	s := NewStore(nil)
	g1 := mine.FromEdges([]mine.Label{1, 2}, []mine.Edge{{U: 0, W: 1}})
	g2 := mine.FromEdges([]mine.Label{1, 2}, []mine.Edge{{U: 0, W: 1}}) // same content, new allocation
	a, existed, err := s.Add(g1, "first")
	if err != nil {
		t.Fatal(err)
	}
	if existed {
		t.Fatal("fresh graph reported as existing")
	}
	b, existed, err := s.Add(g2, "second")
	if err != nil {
		t.Fatal(err)
	}
	if !existed {
		t.Fatal("identical content not deduplicated")
	}
	if a != b || b.Name != "first" {
		t.Errorf("dedupe returned %+v, want the original record", b)
	}
	if s.Len() != 1 || len(s.List()) != 1 {
		t.Errorf("store holds %d graphs, want 1", s.Len())
	}
	if got, err := s.Get(a.ID); err != nil || got != a {
		t.Errorf("Get by fingerprint failed: %v", err)
	}
	if _, err := s.Get("no-such-fp"); !errors.Is(err, ErrUnknownGraph) {
		t.Errorf("Get miss error %v, want ErrUnknownGraph", err)
	}
}

func TestStoreReadLGRejectsGarbage(t *testing.T) {
	s := NewStore(nil)
	for _, bad := range []string{
		"t # g\nv 0 1\nv 0 2\n",   // duplicate vertex id
		"v 0 1\ne 0 9\n",          // undefined edge endpoint
		"t # a\nv 0 1\nt # b\n",   // second header
		"t # empty-no-vertices\n", // no vertices
	} {
		if _, _, err := s.ReadLG(strings.NewReader(bad), "x"); err == nil {
			t.Errorf("ReadLG accepted garbage %q", bad)
		}
	}
	if s.Len() != 0 {
		t.Errorf("rejected uploads leaked into the store (len %d)", s.Len())
	}
}

func TestCacheLRU(t *testing.T) {
	c := NewCache(2, nil)
	k := func(i byte) CacheKey { return CacheKey{Host: string([]byte{'h', i}), Miner: "m"} }
	r1, r2, r3 := &mine.Result{Miner: "1"}, &mine.Result{Miner: "2"}, &mine.Result{Miner: "3"}
	c.Put(k(1), r1)
	c.Put(k(2), r2)
	if got, ok := c.Get(k(1)); !ok || got != r1 { // touch k1: k2 becomes LRU
		t.Fatal("expected hit on k1")
	}
	c.Put(k(3), r3) // evicts k2
	if _, ok := c.Get(k(2)); ok {
		t.Error("LRU entry not evicted")
	}
	if got, ok := c.Get(k(1)); !ok || got != r1 {
		t.Error("recently used entry evicted")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Cap != 2 {
		t.Errorf("stats %+v, want 2/2 occupancy", st)
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats %+v, want 2 hits 1 miss", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0, nil)
	c.Put(CacheKey{Host: "h"}, &mine.Result{})
	if _, ok := c.Get(CacheKey{Host: "h"}); ok {
		t.Error("disabled cache returned a hit")
	}
}
