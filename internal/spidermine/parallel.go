package spidermine

import "repro/internal/par"

// This file is the miner's worker-sharding layer. The seed draw, growth
// and merge rounds run on par.Do at every worker count (inline at one
// worker), under the same ownership discipline (documented in doc.go and
// ROADMAP.md); Stage I runs on the coordinator, before any of them:
//
//   - shared-immutable: the host graph (its label index builds lazily
//     behind a sync.Once), the frequent-pair index, Stage I's star list,
//     and cfg — workers only read these;
//   - per-worker scratch: one growScratch / mergeScratch / canon.Matcher
//     slot from the Miner's par.Workspace arenas, plus worker-indexed
//     accumulator slots (par.Slots) — never shared, never locked,
//     allocated per-worker-once and reused across passes, runs, and
//     restarts;
//   - ordered reduction: results land in item-indexed slots and all
//     cross-worker combination happens afterwards in item order, so the
//     result and every work counter are the same for any worker count.
//     Merge rounds evaluate a group only once its fate is decided (see
//     mergeWaves), so no group is evaluated speculatively. Completion
//     order and map iteration order must never reach a result.

// workerCount resolves cfg.Workers against an item count: never more
// workers than items, never fewer than one.
func (m *Miner) workerCount(items int) int {
	return par.Bound(items, m.cfg.Workers)
}
