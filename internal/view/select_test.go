package view

import (
	"context"
	"strings"
	"testing"

	"graphviews/internal/graph"
	"graphviews/internal/pattern"
)

// fakeCover treats a view as covering query edge i when the view's first
// node label equals the query edge's source label (enough to exercise the
// greedy cover logic without the containment machinery).
func fakeCover(q *pattern.Pattern, def *Definition) []bool {
	out := make([]bool, len(q.Edges))
	for i, e := range q.Edges {
		out[i] = q.Nodes[e.From].Label == def.Pattern.Nodes[0].Label
	}
	return out
}

func TestSelectForWorkloadGreedy(t *testing.T) {
	mk := func(label string) *Definition {
		p := pattern.New("v" + label)
		p.AddNode("a", label)
		return Define("", p)
	}
	cands := NewSet(mk("A"), mk("B"), mk("C"))

	q := pattern.New("q")
	a := q.AddNode("a", "A")
	b := q.AddNode("b", "B")
	c := q.AddNode("c", "C")
	q.AddEdge(a, b)
	q.AddEdge(a, c)
	q.AddEdge(b, c)

	chosen, ok := SelectForWorkload([]*pattern.Pattern{q}, cands, fakeCover)
	if !ok {
		t.Fatalf("coverable workload reported as uncoverable")
	}
	// Edges from A (2) and from B (1): views A and B suffice; C never
	// covers anything.
	if len(chosen) != 2 || chosen[0] != 0 || chosen[1] != 1 {
		t.Fatalf("chosen = %v, want [0 1]", chosen)
	}

	// Make edge (b,c) uncoverable by dropping view B.
	chosen, ok = SelectForWorkload([]*pattern.Pattern{q}, NewSet(mk("A"), mk("C")), fakeCover)
	if ok {
		t.Fatalf("uncoverable workload reported as coverable")
	}
	if len(chosen) != 1 || chosen[0] != 0 {
		t.Fatalf("partial selection = %v, want [0]", chosen)
	}
}

func TestMaterializeDualDirect(t *testing.T) {
	g := graph.New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	g.AddNode("B") // dangling B: kept by plain sim, dropped by dual
	g.AddEdge(a, b)
	p := pattern.New("v")
	p.AddEdge(p.AddNode("a", "A"), p.AddNode("b", "B"))
	x, _ := MaterializeDual(context.Background(), g, NewSet(Define("", p)), 1)
	if x.TotalEdges() != 1 {
		t.Fatalf("dual extension size = %d", x.TotalEdges())
	}
	if len(x.Exts[0].Result.Sim[1]) != 1 {
		t.Fatalf("dual must keep only the linked B: %v", x.Exts[0].Result.Sim)
	}
}

func TestExtensionsSubsetDirect(t *testing.T) {
	g, vs := fig1()
	x, _ := Materialize(context.Background(), g, vs, 1)
	sub := x.Subset([]int{1})
	if sub.Set.Card() != 1 || sub.Set.Defs[0].Name != "V2" {
		t.Fatalf("Subset wrong: %v", sub.Set.Defs)
	}
	if sub.TotalEdges() != x.Exts[1].Edges() {
		t.Fatalf("subset extension size mismatch")
	}
}

// TestReadExtensionsUnsortedPairs: hand-written files with out-of-order
// pairs are re-sorted on load so Has/Dist lookups work.
func TestReadExtensionsUnsortedPairs(t *testing.T) {
	p := pattern.New("V")
	p.AddEdge(p.AddNode("a", "A"), p.AddNode("b", "B"))
	vs := NewSet(Define("V", p))
	src := `
view V matched=1
sim 0 5 3
sim 1 9
ematch 0 5 9 1
ematch 0 3 9 1
`
	x, err := ReadExtensions(strings.NewReader(src), vs)
	if err != nil {
		t.Fatalf("ReadExtensions: %v", err)
	}
	em := &x.Exts[0].Result.Edges[0]
	if !em.Has(3, 9) || !em.Has(5, 9) {
		t.Fatalf("lookups broken on unsorted input: %v", em.Pairs)
	}
	if em.Pairs[0].Src != 3 {
		t.Fatalf("pairs not re-sorted: %v", em.Pairs)
	}
}
