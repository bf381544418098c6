package core

import (
	"context"
	"math/rand"
	"testing"

	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// TestPartialExactWhenContained: a contained query's partial answer is
// the exact answer.
func TestPartialExactWhenContained(t *testing.T) {
	g, q, vs := fig1Instance()
	x, _ := view.Materialize(context.Background(), g, vs, 1)
	pa, err := AnswerPartial(q, x)
	if err != nil {
		t.Fatalf("AnswerPartial: %v", err)
	}
	if !pa.Exact {
		t.Fatalf("Fig. 1 query is contained; partial answer should be exact")
	}
	want := simulation.Simulate(context.Background(), g, q, 1)
	if !pa.Result.Equal(want) {
		t.Fatalf("exact partial answer != direct evaluation")
	}
}

// TestPartialCoverage: with one query edge uncoverable, the partial
// answer covers the rest and its sets are sound upper bounds.
func TestPartialCoverage(t *testing.T) {
	g, q, vs := fig1Instance()
	// Extend the query with an edge no view covers: PRG -> ST.
	st := q.AddNode("st", "ST")
	q.AddEdge(q.NodeIndex("prg1"), st)
	// G needs ST edges from every PRG so the collaboration cycle survives
	// and the true answer stays nonempty: Dan/Pat/Bill -> Emmy2.
	emmy := g.AddNode("ST")
	g.AddEdge(5, emmy)
	g.AddEdge(6, emmy)
	g.AddEdge(7, emmy)

	x, _ := view.Materialize(context.Background(), g, vs, 1)
	if _, ok, _ := Contain(context.Background(), q, vs, 1); ok {
		t.Fatalf("extended query must not be contained")
	}
	pa, err := AnswerPartial(q, x)
	if err != nil {
		t.Fatalf("AnswerPartial: %v", err)
	}
	if pa.Exact {
		t.Fatalf("partial answer claims exactness")
	}
	covered := 0
	for _, c := range pa.Covered {
		if c {
			covered++
		}
	}
	if covered != len(q.Edges)-1 {
		t.Fatalf("covered %d of %d edges, want all but one", covered, len(q.Edges))
	}
	if pa.Covered[len(q.Edges)-1] {
		t.Fatalf("the PRG->ST edge cannot be covered")
	}

	// Soundness: true match sets ⊆ partial sets on covered edges.
	want := simulation.Simulate(context.Background(), g, q, 1)
	if !want.Matched {
		t.Fatalf("true answer should be nonempty")
	}
	for qi := range q.Edges {
		if !pa.Covered[qi] {
			continue
		}
		for _, pr := range want.Edges[qi].Pairs {
			if !pa.Result.Edges[qi].Has(pr.Src, pr.Dst) {
				t.Fatalf("partial answer lost true match %v on edge %d", pr, qi)
			}
		}
	}
}

// TestPartialSoundnessRandom: on random uncontained instances, the
// partial answer is always a superset of the truth on covered edges.
func TestPartialSoundnessRandom(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := rand.New(rand.NewSource(79))
	tested := 0
	for trial := 0; trial < 300 && tested < 80; trial++ {
		vs := randomViews(rng, labels, false)
		// A fully random query: usually not contained.
		g := randomDataGraph(rng, labels)
		q := randomQueryPattern(rng, labels)
		if q == nil {
			continue
		}
		x, _ := view.Materialize(context.Background(), g, vs, 1)
		pa, err := AnswerPartial(q, x)
		if err != nil {
			continue // e.g. single-node query rejected
		}
		want := simulation.Simulate(context.Background(), g, q, 1)
		if !want.Matched {
			tested++
			continue // nothing to check: truth is empty, superset trivial
		}
		for qi := range q.Edges {
			if !pa.Covered[qi] {
				continue
			}
			if !pa.Result.Matched {
				t.Fatalf("trial %d: partial claims ∅ but truth is nonempty", trial)
			}
			for _, pr := range want.Edges[qi].Pairs {
				if !pa.Result.Edges[qi].Has(pr.Src, pr.Dst) {
					t.Fatalf("trial %d: partial lost true match %v on covered edge %d\nq: %s",
						trial, pr, qi, q)
				}
			}
		}
		tested++
	}
	if tested < 40 {
		t.Fatalf("only %d usable trials", tested)
	}
}

// randomQueryPattern builds a small random connected plain pattern.
func randomQueryPattern(rng *rand.Rand, labels []string) *pattern.Pattern {
	pn := 2 + rng.Intn(3)
	p := pattern.New("q")
	for i := 0; i < pn; i++ {
		p.AddNode("", labels[rng.Intn(len(labels))])
	}
	for i := 1; i < pn; i++ {
		j := rng.Intn(i)
		if rng.Intn(2) == 0 {
			p.AddEdge(j, i)
		} else {
			p.AddEdge(i, j)
		}
	}
	if err := p.Validate(); err != nil {
		return nil
	}
	return p
}
