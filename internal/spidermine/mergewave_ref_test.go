package spidermine

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
)

// checkMergesKeyOrder is the reference for checkMerges' waves: the
// sequential CheckMerge walk they replaced, with the known-failure rule
// applied by the walk itself. It evaluates mergeGroups' groups in key
// order at one worker, skips a group once an earlier merge has consumed
// either of its patterns, resolves a group as failed without evaluating
// it when its ordered pattern-ID pair is in failedBefore (the previous
// round's failures), both patterns are done and the cap did not cut its
// candidates, and numbers each merge as it accepts it. It returns the new
// working set, the pattern pairs of the groups it evaluated, in key
// order, and this round's failures, evaluated or resolved.
func checkMergesKeyOrder(t *testing.T, m *Miner, ws []*grown, failedBefore map[idPair]bool) ([]*grown, []pairKey, map[idPair]bool) {
	t.Helper()
	groups, err := m.mergeGroups(ws)
	if err != nil {
		t.Fatal(err)
	}
	for i := range groups {
		gp := &groups[i]
		a, b := ws[gp.pk.a], ws[gp.pk.b]
		gp.knownFail = !gp.cut && a.done && b.done && failedBefore[idPair{a.p.ID, b.p.ID}]
	}
	m.images.prepare(ws, m.scan.base, groups, m.mergeCands)
	consumed := make([]bool, len(ws))
	sc := m.mergeWS.For(1)[0]
	var merged []*grown
	var evaluated []pairKey
	failed := make(map[idPair]bool)
	for _, gp := range groups {
		if consumed[gp.pk.a] || consumed[gp.pk.b] {
			continue
		}
		ids := idPair{ws[gp.pk.a].p.ID, ws[gp.pk.b].p.ID}
		if gp.knownFail {
			m.stats.MergeSkipped++
			failed[ids] = true
			continue
		}
		evaluated = append(evaluated, gp.pk)
		mp := m.tryMerge(&m.images, m.mergeCands[gp.lo:gp.hi], sc, &m.stats.IsoRun)
		if mp == nil {
			failed[ids] = true
			continue
		}
		mp.ID = m.newID()
		consumed[gp.pk.a], consumed[gp.pk.b] = true, true
		m.stats.Merges++
		merged = append(merged, &grown{p: mp, radius: max(ws[gp.pk.a].radius, ws[gp.pk.b].radius)})
	}
	if len(merged) == 0 {
		return ws, evaluated, failed
	}
	var out []*grown
	for i, w := range ws {
		if !consumed[i] {
			out = append(out, w)
		}
	}
	return append(out, merged...), evaluated, failed
}

// workingSetPrint serializes a working set — each pattern's graph,
// embeddings, ID, origin and merged flag, its growth radius and done flag
// — in order.
func workingSetPrint(t *testing.T, ws []*grown) string {
	t.Helper()
	var b []byte
	for _, w := range ws {
		pb, err := json.Marshal(w.p)
		if err != nil {
			t.Fatal(err)
		}
		b = fmt.Appendf(b, "%d %t %d %t %s\n", w.p.ID, w.p.Merged, w.radius, w.done, pb)
	}
	return string(b)
}

// TestMergeWavesMatchKeyOrder: on GID-1, GID-2 and BA working sets, over
// the first merge rounds of a mine, checkMerges at 1, 2 and 4 workers
// evaluates exactly the groups the key-order walk evaluates, in waves
// whose groups share no pattern, resolves the same groups as known
// failures, accepts the same merges and returns the same working set,
// with the same IDs, order, counters and recorded failures.
func TestMergeWavesMatchKeyOrder(t *testing.T) {
	gid1, _ := gen.Synthetic(gen.GIDConfig(1, 1))
	gid2, _ := gen.Synthetic(gen.GIDConfig(2, 7))
	baN := 2000
	if testing.Short() {
		baN = 500
	}
	for _, tc := range []stageCase{
		{"gid1", gid1, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 1}},
		{"gid2", gid2, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 7}},
		{"ba", baHost(baN), baRecipe},
	} {
		m, ws := mergeSet(t, tc.g, tc.cfg)
		merges, skipped := 0, 0
		walkFailed := map[idPair]bool{}
		for round := 1; round <= 4; round++ {
			id0, stats0, prev0 := m.nextID, m.stats, slices.Clone(m.failed.prev)
			want, wantEval, failed := checkMergesKeyOrder(t, m, ws, walkFailed)
			wantPrint, wantID, wantStats := workingSetPrint(t, want), m.nextID, m.stats
			merges += wantStats.Merges - stats0.Merges
			skipped += wantStats.MergeSkipped - stats0.MergeSkipped
			walkFailed = failed
			var out []*grown
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s/round=%d/workers=%d", tc.name, round, workers)
				m.nextID, m.stats, m.cfg.Workers = id0, stats0, workers
				m.failed.prev, m.failed.cur = slices.Clone(prev0), nil
				var eval []pairKey
				shared := 0
				m.waveSeen = func(wave []waveItem) {
					inWave := make(map[int]bool)
					for _, it := range wave {
						if pk := it.gp.pk; inWave[pk.a] || inWave[pk.b] {
							shared++
						}
						inWave[it.gp.pk.a], inWave[it.gp.pk.b] = true, true
						eval = append(eval, it.gp.pk)
					}
				}
				var err error
				if out, err = m.checkMerges(ws); err != nil {
					t.Fatal(err)
				}
				if shared > 0 {
					t.Fatalf("%s: %d groups shared a pattern with an earlier group of their wave", name, shared)
				}
				slices.SortFunc(eval, func(x, y pairKey) int {
					if x.a != y.a {
						return x.a - y.a
					}
					return x.b - y.b
				})
				if !slices.Equal(eval, wantEval) {
					t.Fatalf("%s: waves evaluated %d groups, the walk %d, or other ones", name, len(eval), len(wantEval))
				}
				if got := workingSetPrint(t, out); got != wantPrint {
					t.Fatalf("%s: working set differs from the walk's", name)
				}
				if m.nextID != wantID || m.stats != wantStats {
					t.Fatalf("%s: next ID %d, stats %v; the walk's %d, %v", name, m.nextID, m.stats, wantID, wantStats)
				}
				if len(m.failed.prev) != len(failed) || !slices.IsSortedFunc(m.failed.prev, cmpIDPair) {
					t.Fatalf("%s: %d failures recorded, the walk %d, or out of order", name, len(m.failed.prev), len(failed))
				}
				for _, f := range m.failed.prev {
					if !failed[f] {
						t.Fatalf("%s: failure %v recorded, not one of the walk's", name, f)
					}
				}
			}
			m.waveSeen, m.cfg.Workers = nil, 1
			ws = out
			if len(ws) < 2 {
				break
			}
			if _, err := m.growAll(ws); err != nil {
				t.Fatal(err)
			}
		}
		if merges == 0 {
			t.Fatalf("%s: no round merged anything", tc.name)
		}
		t.Logf("%s: %d merges, %d groups resolved as known failures", tc.name, merges, skipped)
	}
}
