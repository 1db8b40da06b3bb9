// Package txdb provides the graph-transaction setting: a database of
// graphs where pattern support is the number of database graphs containing
// at least one embedding. SpiderMine and ORIGAMI consume the database as a
// disjoint union graph with a vertex → transaction-id table.
package txdb

import (
	"math/rand"

	"repro/internal/gen"
	"repro/internal/graph"
)

// DB is a graph-transaction database.
type DB struct {
	Graphs []*graph.Graph
}

// New builds a database from graphs.
func New(gs ...*graph.Graph) *DB { return &DB{Graphs: gs} }

// Union returns the disjoint union of all transaction graphs plus txOf,
// mapping each union vertex to the index of its source graph. Vertex ids
// are assigned consecutively per graph in order.
func (db *DB) Union() (*graph.Graph, []int) {
	total, edges := 0, 0
	for _, g := range db.Graphs {
		total += g.N()
		edges += g.M()
	}
	b := graph.NewBuilder(total, edges)
	txOf := make([]int, 0, total)
	offset := graph.V(0)
	for ti, g := range db.Graphs {
		for v := 0; v < g.N(); v++ {
			b.AddVertex(g.Label(graph.V(v)))
			txOf = append(txOf, ti)
		}
		for _, e := range g.Edges() {
			b.AddEdge(offset+e.U, offset+e.W)
		}
		offset += graph.V(g.N())
	}
	return b.Build(), txOf
}

// SyntheticTxConfig describes the transaction-setting datasets of §5.1.2:
// several ER graphs with shared large (and optionally small) patterns
// injected across them.
type SyntheticTxConfig struct {
	NumGraphs int
	N         int     // vertices per graph
	AvgDeg    float64 // average degree per graph
	NumLabels int
	Large     gen.InjectSpec // injected into every graph
	Small     gen.InjectSpec // injected into every graph
	Seed      int64
}

// SyntheticTx builds the database: the same large pattern set is embedded
// once into each transaction graph (so each pattern's transaction support
// equals NumGraphs), and each small pattern into a random subset.
func SyntheticTx(cfg SyntheticTxConfig) (*DB, []*graph.Graph) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var larges []*graph.Graph
	for i := 0; i < cfg.Large.Count; i++ {
		larges = append(larges, gen.RandomConnectedPattern(cfg.Large.NV, cfg.Large.NV/5, cfg.NumLabels, 4, rng))
	}
	var smalls []*graph.Graph
	for i := 0; i < cfg.Small.Count; i++ {
		smalls = append(smalls, gen.RandomConnectedPattern(cfg.Small.NV, 0, cfg.NumLabels, 2, rng))
	}
	db := &DB{}
	for gi := 0; gi < cfg.NumGraphs; gi++ {
		bg := gen.ErdosRenyi(cfg.N, cfg.AvgDeg, cfg.NumLabels, rng)
		b := graph.NewBuilder(bg.N(), bg.M()*2)
		for v := 0; v < bg.N(); v++ {
			b.AddVertex(bg.Label(graph.V(v)))
		}
		for _, e := range bg.Edges() {
			b.AddEdge(e.U, e.W)
		}
		used := make(map[graph.V]bool)
		for _, p := range larges {
			gen.EmbedInto(b, p, used, rng)
		}
		for _, p := range smalls {
			// Each small pattern appears in ~80% of graphs, keeping them
			// frequent but noisy.
			if rng.Float64() < 0.8 {
				gen.EmbedInto(b, p, used, rng)
			}
		}
		db.Graphs = append(db.Graphs, b.Build())
	}
	return db, larges
}
