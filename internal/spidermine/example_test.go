package spidermine_test

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/spidermine"
)

// Example mines a toy network holding two copies of a labeled triangle and
// prints the largest frequent pattern.
func Example() {
	b := graph.NewBuilder(8, 8)
	for i := 0; i < 2; i++ {
		v1 := b.AddVertex(1)
		v2 := b.AddVertex(2)
		v3 := b.AddVertex(3)
		b.AddEdge(v1, v2)
		b.AddEdge(v2, v3)
		b.AddEdge(v1, v3)
	}
	noise1 := b.AddVertex(4)
	noise2 := b.AddVertex(5)
	b.AddEdge(noise1, noise2)
	b.AddEdge(0, noise1)

	res, err := spidermine.MineContext(context.Background(), b.Build(), spidermine.Config{
		MinSupport: 2,
		K:          1,
		Dmax:       2,
		Seed:       1,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	top := res.Patterns[0]
	fmt.Printf("largest pattern: %d vertices, %d edges, %d embeddings\n",
		top.NV(), top.Size(), len(top.Emb))
	// Output:
	// largest pattern: 3 vertices, 3 edges, 2 embeddings
}
