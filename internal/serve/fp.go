// Package serve is the mining service layer: a graph store keyed by
// content fingerprint, a bounded FIFO job scheduler running mine-façade
// jobs under per-job cancellation, a result cache keyed by
// (host fingerprint, miner, canonical Options fingerprint), and an
// HTTP/JSON API (Server) exposing all of it — upload hosts in LG format,
// submit jobs, stream NDJSON progress, cancel for deterministic committed
// partials. Command spiderserved is the daemon around this package.
//
// The HTTP surface preserves the façade's truncation-vs-error contract:
// a run stopped by its own budgets (Options.MaxPatterns / MaxWallClock /
// a miner-internal budget) finishes with status "done" and a non-empty
// "truncated" reason; a run stopped by cancellation (DELETE /jobs/{id},
// or the drain deadline at shutdown) finishes with status "canceled", an
// "error" field, and its deterministic committed partial result still
// retrievable from /jobs/{id}/result.
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"repro/internal/graph"
)

// tokenStream accumulates a stable 128-bit content fingerprint: SHA-256
// over a canonical stream of big-endian u64 tokens, truncated to 128
// bits. The store and cache deduplicate purely by fingerprint — requests
// are routed by it — so the hash must be collision-resistant, not merely
// well-distributed (a crafted collision would silently alias two
// distinct graphs and poison every cached result; the FNV-style mixes
// the matcher uses internally are fine for dedupe heuristics but not for
// content addressing). The construction is frozen: fingerprints are
// wire-visible (graph ids) and must be stable across releases.
//
// Tokens are staged in a 4 KiB block and handed to SHA-256 one block at
// a time: the bytes hashed are exactly the token stream, with one Write
// per 512 tokens instead of one per token.
type tokenStream struct {
	h   hash.Hash
	n   int // bytes staged in blk
	blk [4096]byte
}

// mix stages one token, first handing a full block to the hash. It is
// small enough to inline into the fingerprint loops.
func (d *tokenStream) mix(x uint64) {
	if d.n == len(d.blk) {
		d.flush()
	}
	binary.BigEndian.PutUint64(d.blk[d.n:], x)
	d.n += 8
}

// flush hands the staged tokens to the hash.
func (d *tokenStream) flush() {
	d.h.Write(d.blk[:d.n])
	d.n = 0
}

// hex flushes the staged tokens and renders the truncated 128-bit digest.
func (d *tokenStream) hex() string {
	d.flush()
	return hex128(d.h)
}

// hex128 renders the first 128 bits of h's digest as 32 lowercase hex
// digits.
func hex128(h hash.Hash) string {
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// FingerprintGraph returns the stable 128-bit content fingerprint of a
// graph: vertex count, edge count, the label sequence, and the sorted
// deduped CSR edge list. Builder.Build canonicalizes edge order, so any
// two graphs with identical content — regardless of input edge order or
// the advisory LG name — fingerprint identically.
func FingerprintGraph(g *graph.Graph) string {
	d := &tokenStream{h: sha256.New()}
	d.mix(uint64(g.N()))
	d.mix(uint64(g.M()))
	for _, l := range g.Labels() {
		d.mix(uint64(uint32(l)))
	}
	// Stream the U < W edge list straight off the CSR — identical token
	// order to ranging over g.Edges(), without materializing a second
	// copy of a large host's adjacency just to hash it.
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors(graph.V(u)) {
			if graph.V(u) < w {
				d.mix(uint64(uint32(u))<<32 | uint64(uint32(w)))
			}
		}
	}
	return d.hex()
}

// FingerprintBytes returns the 128-bit fingerprint of a byte string —
// used on canonical Options serializations for cache keys. Its stream is
// the length as one big-endian u64 token, then the bytes.
func FingerprintBytes(p []byte) string {
	h := sha256.New()
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(p)))
	h.Write(n[:])
	h.Write(p)
	return hex128(h)
}
