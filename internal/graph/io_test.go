package graph

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLGRoundTrip(t *testing.T) {
	g := FromEdges([]Label{3, 1, 4, 1}, []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	var buf bytes.Buffer
	if err := g.WriteLG(&buf, "roundtrip"); err != nil {
		t.Fatal(err)
	}
	g2, name, err := ReadLG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "roundtrip" {
		t.Fatalf("name %q", name)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("roundtrip mismatch: %v vs %v", g2, g)
	}
	for v := 0; v < g.N(); v++ {
		if g.Label(V(v)) != g2.Label(V(v)) {
			t.Fatal("labels changed")
		}
	}
	for _, e := range g.Edges() {
		if !g2.HasEdge(e.U, e.W) {
			t.Fatalf("edge %v lost", e)
		}
	}
}

func TestReadLGIgnoresCommentsAndBlanks(t *testing.T) {
	in := "t # demo\n\n# a comment\nv 0 7\nv 1 8\ne 0 1\n"
	g, name, err := ReadLG(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if name != "demo" || g.N() != 2 || g.M() != 1 {
		t.Fatalf("parse wrong: name=%q %v", name, g)
	}
}

func TestReadLGErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"bad vertex id", "v x 0\n"},
		{"bad vertex label", "v 0 y\n"},
		{"non-dense ids", "v 5 0\n"},
		{"short vertex line", "v 0\n"},
		{"short edge line", "e 0\n"},
		{"edge bad endpoint", "v 0 0\nv 1 0\ne 0 z\n"},
		{"edge unknown vertex", "v 0 0\ne 0 9\n"},
	}
	for _, c := range cases {
		if _, _, err := ReadLG(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestReadLGRejectsGarbageWithPosition: the malformed shapes a serving
// endpoint must refuse to ingest — duplicate vertex ids, edges against
// undefined vertices, a second graph header — fail with line-numbered
// errors naming the defect.
func TestReadLGRejectsGarbageWithPosition(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []string
	}{
		{
			"duplicate vertex id",
			"t # g\nv 0 1\nv 1 2\nv 0 3\n",
			[]string{"line 4", "duplicate vertex id 0"},
		},
		{
			"edge references undefined vertex",
			"v 0 1\nv 1 1\ne 1 2\n",
			[]string{"line 3", "undefined vertex"},
		},
		{
			"edge before any vertex",
			"e 0 1\nv 0 1\nv 1 1\n",
			[]string{"line 1", "undefined vertex"},
		},
		{
			"negative edge endpoint",
			"v 0 1\ne -1 0\n",
			[]string{"line 2", "undefined vertex"},
		},
		{
			"second graph header",
			"t # a\nv 0 1\nt # b\nv 1 1\n",
			[]string{"line 3", "second graph header"},
		},
	}
	for _, c := range cases {
		_, _, err := ReadLG(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		for _, frag := range c.want {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: error %q missing %q", c.name, err, frag)
			}
		}
	}
}

// TestReadLGLabelRange: labels are int32. The ends of that range parse
// as themselves; a label outside it is rejected with its line number, not
// wrapped onto a label the host may already use (4294967296 used to read
// as 0, and -4294967297 as -1).
func TestReadLGLabelRange(t *testing.T) {
	g, _, err := ReadLG(strings.NewReader("v 0 2147483647\nv 1 -2147483648\ne 0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Label(0) != math.MaxInt32 || g.Label(1) != math.MinInt32 {
		t.Fatalf("labels %d, %d; want the int32 extremes", g.Label(0), g.Label(1))
	}
	for _, c := range []struct{ in, line string }{
		{"v 0 0\nv 1 4294967296\ne 0 1\n", "line 2"},
		{"v 0 -1\nv 1 -4294967297\ne 0 1\n", "line 2"},
		{"v 0 2147483648\n", "line 1"},
		{"t # g\nv 0 1\nv 1 2\nv 2 -2147483649\n", "line 4"},
	} {
		_, _, err := ReadLG(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%q: accepted a label outside int32", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.line) || !strings.Contains(err.Error(), "bad vertex label") {
			t.Errorf("%q: error %q does not name %s and the label", c.in, err, c.line)
		}
	}
}

func TestReadLGAcceptsEdgeLabels(t *testing.T) {
	in := "v 0 1\nv 1 1\ne 0 1 42\n" // trailing edge label dropped
	g, _, err := ReadLG(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatal("edge with label not parsed")
	}
}

// Property: ReadLG never panics on arbitrary input; it either parses or
// returns an error.
func TestQuickReadLGNoPanic(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadLG panicked on %q: %v", data, r)
			}
		}()
		_, _, _ = ReadLG(bytes.NewReader(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: WriteLG/ReadLG round-trips arbitrary generated graphs.
func TestQuickLGRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		b := NewBuilder(n, 2*n)
		for i := 0; i < n; i++ {
			b.AddVertex(Label(rng.Intn(5)))
		}
		for i := 0; i < 2*n; i++ {
			b.AddEdge(V(rng.Intn(n)), V(rng.Intn(n)))
		}
		g := b.Build()
		var buf bytes.Buffer
		if err := g.WriteLG(&buf, "rt"); err != nil {
			return false
		}
		g2, _, err := ReadLG(&buf)
		if err != nil || g2.N() != g.N() || g2.M() != g.M() {
			return false
		}
		for _, e := range g.Edges() {
			if !g2.HasEdge(e.U, e.W) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
