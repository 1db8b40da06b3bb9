package mine

import (
	"io"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/txdb"
)

// This file re-exports the host-data vocabulary the façade's inputs and
// outputs are expressed in — graphs, builders, patterns, transaction
// databases, the LG/DOT codecs, and the synthetic workload generators of
// the paper's evaluation — so programs (the examples, external tooling)
// can build inputs and consume results without reaching into internal/.
// The aliases expose the internal types themselves: a *mine.Graph *is* an
// *internal/graph.Graph, with its full method set (WriteLG, WriteDOT,
// Diameter, ...), at zero wrapping cost.

type (
	// Graph is an immutable labeled undirected graph in CSR layout.
	Graph = graph.Graph
	// GraphBuilder accumulates vertices and edges for a Graph.
	GraphBuilder = graph.Builder
	// Label is a vertex (or encoded edge) label.
	Label = graph.Label
	// V is a vertex id.
	V = graph.V
	// Edge is an undirected edge.
	Edge = graph.Edge
	// Pattern is a mined pattern: a pattern graph plus its embeddings.
	Pattern = pattern.Pattern
	// Embedding maps pattern vertices to host vertices.
	Embedding = pattern.Embedding
	// DB is a graph-transaction database.
	DB = txdb.DB
	// Mapped is an open handle to an mmap'd SPC1 graph image (see
	// OpenMapped); its Graph is invalid after Close.
	Mapped = graph.Mapped
	// Advice is an access-pattern hint for Mapped.Advise.
	Advice = graph.Advice

	// SyntheticConfig parameterizes the paper's §5.1 single-graph
	// generator (ER background + injected patterns).
	SyntheticConfig = gen.SyntheticConfig
	// SyntheticTxConfig parameterizes the transaction-database generator.
	SyntheticTxConfig = txdb.SyntheticTxConfig
	// InjectSpec sizes one injected pattern population.
	InjectSpec = gen.InjectSpec
	// DBLPConfig parameterizes the DBLP-like co-authorship generator.
	DBLPConfig = gen.DBLPConfig
	// CallGraphConfig parameterizes the Jeti-like call-graph generator.
	CallGraphConfig = gen.CallGraphConfig
)

// NewGraphBuilder returns a builder pre-sized for n vertices and m edges
// (both may be exceeded).
func NewGraphBuilder(n, m int) *GraphBuilder { return graph.NewBuilder(n, m) }

// FromEdges builds a graph from explicit labels and edges.
func FromEdges(labels []Label, edges []Edge) *Graph { return graph.FromEdges(labels, edges) }

// ReadLG parses a graph in LG format (# name / v id label / e u w).
func ReadLG(r io.Reader) (*Graph, string, error) { return graph.ReadLG(r) }

// OpenMapped mmaps an SPC1 graph image written by Graph.WriteImage /
// WriteImageFile: the returned handle's Graph reads straight from the
// page cache with zero decoding and O(1) open-time allocations. Every
// open first verifies the image in full — section checksums, a streaming
// structural pass and an exact symmetry sweep — so a corrupt or hostile
// image errors instead of crashing a later read. A mapped host mines
// identically to its in-RAM twin (README §Out-of-core). Close the handle
// when done; Clone the graph first if it must outlive the mapping.
func OpenMapped(path string) (*Mapped, error) { return graph.OpenMapped(path) }

// OpenImage opens an SPC1 image already sitting in memory, aliasing the
// graph onto data (which must stay live and unmodified while the graph
// is in use). It runs the same verification as OpenMapped.
func OpenImage(data []byte) (*Graph, error) { return graph.OpenImage(data) }

// NewDB builds a transaction database over the given graphs.
func NewDB(gs ...*Graph) *DB { return txdb.New(gs...) }

// EncodeEdgeLabels encodes an edge-labeled graph for the vertex-labeled
// miners by subdividing each edge with a midpoint vertex carrying the
// edge label (offset by `offset` past the vertex-label space); §3's
// edge-label remark. Edge labels must lie in [0, MaxInt32−offset].
func EncodeEdgeLabels(labels []Label, edges []Edge, edgeLabels []Label, offset Label) (*Graph, error) {
	return graph.EncodeEdgeLabels(labels, edges, edgeLabels, offset)
}

// DecodedEdge is one edge of a decoded edge-labeled pattern.
type DecodedEdge = graph.DecodedEdge

// DecodeEdgeLabels inverts EncodeEdgeLabels on a mined pattern graph.
func DecodeEdgeLabels(p *Graph, offset Label) (vertexLabels []Label, edges []DecodedEdge, danglingMidpoints int, err error) {
	return graph.DecodeEdgeLabels(p, offset)
}

// Synthetic generates a §5.1 synthetic network; it returns the host graph
// and the injected patterns.
func Synthetic(cfg SyntheticConfig) (*Graph, []*Graph) { return gen.Synthetic(cfg) }

// SyntheticTx generates a transaction database with injected large and
// small patterns; it returns the database and the large patterns.
func SyntheticTx(cfg SyntheticTxConfig) (*DB, []*Graph) { return txdb.SyntheticTx(cfg) }

// DBLPLike generates a DBLP-like co-authorship network with planted
// collaborative motifs.
func DBLPLike(cfg DBLPConfig) (*Graph, []*Graph) { return gen.DBLPLike(cfg) }

// CallGraphLike generates a Jeti-like software call graph with planted
// library-usage motifs.
func CallGraphLike(cfg CallGraphConfig) (*Graph, []*Graph) { return gen.CallGraphLike(cfg) }
