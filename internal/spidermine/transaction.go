package spidermine

import (
	"context"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/support"
	"repro/internal/txdb"
)

// MineTransactionsContext adapts SpiderMine to the graph-transaction
// setting (§5.1.2): the database is mined as its disjoint union graph and
// every σ-comparison counts distinct containing transactions instead of
// raw embeddings. Stage I spider support remains head-count support on the
// union graph, a safe upper bound on transaction support that the growth
// stages re-verify. Cancellation follows RunContext's partial-result
// contract.
func MineTransactionsContext(ctx context.Context, db *txdb.DB, cfg Config) (*Result, error) {
	union, txOf := db.Union()
	m := New(union, cfg)
	m.supFn = func(_ *graph.Graph, embs []pattern.Embedding) int {
		return support.TransactionSupport(embs, txOf)
	}
	return m.RunContext(ctx)
}
