package spider

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/gen"
	"repro/internal/graph"
)

// sharedEntries reports how many entries the table map holds and how many
// of them are live: host and table both still reachable.
func sharedEntries() (all, live int) {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	for k, w := range sharedTables {
		if k.host.Value() != nil && w.Value() != nil {
			live++
		}
	}
	return len(sharedTables), live
}

// sharedHas reports whether MineStarsShared would hand out a recorded
// table for g under opt.
func sharedHas(g *graph.Graph, opt Options) bool {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	return sharedTables[sharedKey{weak.Make(g), opt.MinSupport, opt.MaxLeaves, opt.MaxSpiders}].Value() != nil
}

func mineShared(t *testing.T, g *graph.Graph, opt Options) *Stars {
	t.Helper()
	stars, err := MineStarsShared(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return stars
}

// sameTable fails t unless got holds exactly want's stars and host
// lists, in order.
func sameTable(t *testing.T, what string, got, want *Stars) {
	t.Helper()
	if err := sameStars(listStars(got), listStars(want)); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestMineStarsSharedRetainsNothing: a live table is handed out again,
// but the table map keeps neither a host nor a table alive. Once the last
// table is dropped and a GC has run, the next mine re-mines; once the host
// is dropped, the map holds no live entry for it and the next insert
// removes its entry.
func TestMineStarsSharedRetainsNothing(t *testing.T) {
	opt := Options{MinSupport: 2}
	g, _ := gen.Synthetic(gen.GIDConfig(1, 1))
	cold := mineStars(g, opt)
	first := mineShared(t, g, opt)
	if again := mineShared(t, g, opt); again != first {
		t.Fatal("a live table of the same host and options was not reused")
	}
	sameTable(t, "shared", first, cold)

	wt := weak.Make(first)
	first = nil
	runtime.GC()
	if wt.Value() != nil {
		t.Fatal("the table map kept a dropped table alive")
	}
	if sharedHas(g, opt) {
		t.Fatal("a reclaimed table is still recorded as live")
	}
	remined := mineShared(t, g, opt)
	sameTable(t, "re-mined", remined, cold)
	if !sharedHas(g, opt) {
		t.Fatal("the re-mined table was not recorded")
	}

	wg := weak.Make(g)
	g = nil
	runtime.GC()
	if wg.Value() != nil {
		t.Fatal("the table map or a table kept a dropped host alive")
	}
	if _, live := sharedEntries(); live != 0 {
		t.Fatalf("%d live entries after the only host died, want 0", live)
	}
	other := gen.ErdosRenyi(40, 3, 3, rand.New(rand.NewSource(1)))
	mineShared(t, other, opt)
	if all, _ := sharedEntries(); all != 1 {
		t.Fatalf("the map holds %d entries after an insert, want only the new host's", all)
	}
	runtime.KeepAlive(remined)
	runtime.KeepAlive(other)
}

// TestMineStarsSharedBounded: mining a thousand short-lived hosts leaves
// the table map bounded by what is alive: dead entries go on the next
// insert after a GC.
func TestMineStarsSharedBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	opt := Options{MinSupport: 2}
	most := 0
	for i := range 1000 {
		if i%100 == 0 {
			runtime.GC()
		}
		mineShared(t, gen.ErdosRenyi(30, 3, 3, rng), opt)
		all, _ := sharedEntries()
		most = max(most, all)
	}
	if most > 105 {
		t.Errorf("the map grew to %d entries with a GC every 100 hosts", most)
	}
	runtime.GC()
	last := gen.ErdosRenyi(30, 3, 3, rng)
	mineShared(t, last, opt)
	if all, live := sharedEntries(); all != live || all > 2 {
		t.Errorf("after a GC and one more host the map holds %d entries, %d live; want only live ones, about 1", all, live)
	}
	runtime.KeepAlive(last)
}

// TestMineStarsSharedSkipsCutTables: a Stage I cut by its context, here
// inside a level past the first, is not recorded, and the next uncut mine
// of the host equals a cold one.
func TestMineStarsSharedSkipsCutTables(t *testing.T) {
	opt := Options{MinSupport: 2, MaxLeaves: 5}
	for wait := 50 * time.Microsecond; ; wait *= 2 {
		if wait > 10*time.Second {
			t.Fatal("no deadline cut Stage I after its first level")
		}
		g := gen.BarabasiAlbert(3000, 3, 12, rand.New(rand.NewSource(5)))
		ctx, cancel := context.WithTimeout(context.Background(), wait)
		cut, err := MineStarsShared(ctx, g, opt)
		cancel()
		if err == nil {
			t.Fatalf("Stage I finished within %v; the host is too small to cut", wait)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatal(err)
		}
		if cut.Len() == 0 {
			continue // cut inside level 1; wait longer
		}
		if sharedHas(g, opt) {
			t.Fatal("a cut table was recorded")
		}
		got := mineShared(t, g, opt)
		if got == cut {
			t.Fatal("the cut table was handed out")
		}
		sameTable(t, "after a cut", got, mineStars(g, opt))
		t.Logf("a %v deadline cut Stage I at %d of %d stars", wait, cut.Len(), got.Len())
		return
	}
}
