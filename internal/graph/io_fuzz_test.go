package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadGraph fuzzes the LG text-format round trip: any input ReadLG
// accepts must survive WriteLG → ReadLG with an identical graph (labels,
// edge set, CSR layout) and name. The seed corpus in
// testdata/fuzz/FuzzReadGraph covers the directive grammar; the fuzzer
// mutates from there.
func FuzzReadGraph(f *testing.F) {
	f.Add("t # tiny\nv 0 1\nv 1 2\ne 0 1\n")
	f.Add("v 0 0\n")
	f.Add("t # name with spaces\nv 0 -3\nv 1 7\nv 2 7\ne 0 1\ne 1 2\ne 0 2\n")
	f.Add("# comment\n\nv 0 5\nv 1 5\ne 0 1 99\n") // trailing edge label dropped
	f.Add("t # dup\nv 0 1\nv 1 1\ne 0 1\ne 1 0\ne 0 0\n")
	f.Add("x unknown directive\nv 0 2\n")
	f.Add("t # dup-id\nv 0 1\nv 1 2\nv 0 3\ne 0 1\n")    // duplicate vertex id: must error, not merge
	f.Add("t # dangling\nv 0 1\nv 1 1\ne 1 7\ne -2 0\n") // edges against undefined vertices: must error
	f.Add("t # one\nv 0 1\nt # two\nv 1 1\ne 0 1\n")     // second graph header: must error, not concatenate
	f.Add("v 0 0\nv 1 4294967296\ne 0 1\n")              // label past int32: must error, not wrap to 0
	f.Add("v 0 -1\nv 1 -4294967297\ne 0 1\n")            // label below int32: must error, not wrap to -1
	f.Fuzz(func(t *testing.T, in string) {
		g, name, err := ReadLG(strings.NewReader(in))
		if err != nil {
			t.Skip() // malformed input is allowed to fail; crashes are not
		}
		var buf bytes.Buffer
		if err := g.WriteLG(&buf, name); err != nil {
			t.Fatalf("WriteLG failed on parsed graph: %v", err)
		}
		g2, name2, err := ReadLG(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of written graph failed: %v\nwritten:\n%s", err, buf.String())
		}
		if name2 != name {
			t.Fatalf("name round-trip: %q -> %q", name, name2)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("shape round-trip: (n=%d m=%d) -> (n=%d m=%d)", g.N(), g.M(), g2.N(), g2.M())
		}
		for v := 0; v < g.N(); v++ {
			if g.Label(V(v)) != g2.Label(V(v)) {
				t.Fatalf("label round-trip at %d: %d -> %d", v, g.Label(V(v)), g2.Label(V(v)))
			}
		}
		e1, e2 := g.Edges(), g2.Edges()
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Fatalf("edge round-trip at %d: %v -> %v", i, e1[i], e2[i])
			}
		}
	})
}
