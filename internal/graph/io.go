package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteLG writes the graph in the simple "LG" text format used by many
// graph miners:
//
//	t # <name>
//	v <id> <label>
//	e <u> <w>
//
// Vertices are written in id order, edges with U < W in lexicographic
// order.
func (g *Graph) WriteLG(w io.Writer, name string) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "t # %s\n", name); err != nil {
		return err
	}
	for v := 0; v < g.N(); v++ {
		if _, err := fmt.Fprintf(bw, "v %d %d\n", v, g.Label(V(v))); err != nil {
			return err
		}
	}
	// Stream edges straight off the CSR (same U < W lexicographic order
	// Edges produces) rather than materializing the edge list: encoding a
	// large host must not allocate a second copy of its adjacency.
	for u := 0; u < g.N(); u++ {
		for _, x := range g.Neighbors(V(u)) {
			if V(u) < x {
				if _, err := fmt.Fprintf(bw, "e %d %d\n", u, x); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadLG parses a single graph in LG format. Unknown directives and blank
// lines are ignored; an optional trailing edge label field is accepted and
// dropped (the library is vertex-labeled). Malformed input — duplicate or
// out-of-order vertex ids, labels outside int32, edges referencing
// undefined vertices, a second graph header — is rejected with a
// positional (line-numbered) error rather than silently accepted: serving
// endpoints ingest through this reader, and a quietly mis-parsed host
// would poison every job mined against it.
func ReadLG(r io.Reader) (*Graph, string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	b := NewBuilder(0, 0)
	name := ""
	lineNo := 0
	sawHeader := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "t":
			// "t # name"
			if sawHeader {
				return nil, "", fmt.Errorf("graph: line %d: second graph header %q (ReadLG parses a single graph)", lineNo, line)
			}
			sawHeader = true
			if len(fields) >= 3 {
				name = strings.Join(fields[2:], " ")
			}
		case "v":
			if len(fields) < 3 {
				return nil, "", fmt.Errorf("graph: line %d: malformed vertex %q", lineNo, line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, "", fmt.Errorf("graph: line %d: bad vertex id: %v", lineNo, err)
			}
			// Labels are int32: a wider value is rejected, never wrapped
			// onto a label the host may already use.
			lab, err := strconv.ParseInt(fields[2], 10, 32)
			if err != nil {
				return nil, "", fmt.Errorf("graph: line %d: bad vertex label: %v", lineNo, err)
			}
			if id < b.N() && id >= 0 {
				return nil, "", fmt.Errorf("graph: line %d: duplicate vertex id %d", lineNo, id)
			}
			if id != b.N() {
				return nil, "", fmt.Errorf("graph: line %d: vertex ids must be dense and in order; got %d, want %d", lineNo, id, b.N())
			}
			b.AddVertex(Label(lab))
		case "e":
			if len(fields) < 3 {
				return nil, "", fmt.Errorf("graph: line %d: malformed edge %q", lineNo, line)
			}
			u, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, "", fmt.Errorf("graph: line %d: bad edge endpoint: %v", lineNo, err)
			}
			w, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, "", fmt.Errorf("graph: line %d: bad edge endpoint: %v", lineNo, err)
			}
			if u < 0 || w < 0 || u >= b.N() || w >= b.N() {
				return nil, "", fmt.Errorf("graph: line %d: edge (%d,%d) references undefined vertex (have %d)", lineNo, u, w, b.N())
			}
			b.AddEdge(V(u), V(w))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, "", err
	}
	return b.Build(), name, nil
}
