package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"graphviews/internal/graph"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// --- Fig. 1 end-to-end golden test (Examples 1–3) ---

func fig1Instance() (*graph.Graph, *pattern.Pattern, *view.Set) {
	g := graph.New()
	for _, l := range []string{"PM", "PM", "DBA", "DBA", "DBA", "PRG", "PRG", "PRG", "BA", "ST"} {
		g.AddNode(l)
	}
	for _, e := range [][2]graph.NodeID{
		{0, 2}, {1, 2}, {0, 5}, {1, 7},
		{3, 6}, {2, 6}, {4, 7},
		{5, 3}, {6, 4}, {6, 2}, {7, 2},
	} {
		g.AddEdge(e[0], e[1])
	}

	q := pattern.New("Qs")
	pm := q.AddNode("pm", "PM")
	dba1 := q.AddNode("dba1", "DBA")
	prg1 := q.AddNode("prg1", "PRG")
	dba2 := q.AddNode("dba2", "DBA")
	prg2 := q.AddNode("prg2", "PRG")
	q.AddEdge(pm, dba1)
	q.AddEdge(pm, prg2)
	q.AddEdge(dba1, prg1)
	q.AddEdge(prg1, dba2)
	q.AddEdge(dba2, prg2)
	q.AddEdge(prg2, dba1)

	v1 := pattern.New("V1")
	p1 := v1.AddNode("pm", "PM")
	v1.AddEdge(p1, v1.AddNode("dba", "DBA"))
	v1.AddEdge(p1, v1.AddNode("prg", "PRG"))

	v2 := pattern.New("V2")
	d2 := v2.AddNode("dba", "DBA")
	r2 := v2.AddNode("prg", "PRG")
	v2.AddEdge(d2, r2)
	v2.AddEdge(r2, d2)

	return g, q, view.NewSet(view.Define("", v1), view.Define("", v2))
}

// TestExample3AndMatchJoinFig1: Qs ⊑ {V1,V2} and MatchJoin reproduces the
// Example 2 result exactly.
func TestExample3AndMatchJoinFig1(t *testing.T) {
	g, q, vs := fig1Instance()
	l, ok, err := Contain(context.Background(), q, vs, 1)
	if err != nil || !ok {
		t.Fatalf("Example 3: Qs ⊑ V expected, got %v %v", ok, err)
	}
	x, _ := view.Materialize(context.Background(), g, vs, 1)
	got, _, _ := MatchJoin(context.Background(), q, x, l, 1)
	want := simulation.Simulate(context.Background(), g, q, 1)
	if !got.Equal(want) {
		t.Fatalf("MatchJoin != Match on Fig. 1\ngot:  %v\nwant: %v", got, want)
	}
	// Spot-check against the Example 2 table.
	if !got.Edges[0].Has(0, 2) || !got.Edges[0].Has(1, 2) || got.Edges[0].Len() != 2 {
		t.Fatalf("(PM,DBA1) = %v", got.Edges[0].Pairs)
	}
}

// --- Fig. 3 golden test (Example 4) ---

func fig3Instance() (*graph.Graph, *pattern.Pattern, *view.Set) {
	g := graph.New()
	for _, l := range []string{"PM", "AI", "AI", "DB", "DB", "SE", "SE", "Bio"} {
		g.AddNode(l)
	}
	for _, e := range [][2]graph.NodeID{
		{0, 1}, {0, 2}, {2, 7}, {3, 2}, {4, 1}, {1, 5}, {2, 6}, {5, 4}, {6, 3}, {5, 7},
	} {
		g.AddEdge(e[0], e[1])
	}

	q := pattern.New("Qs3")
	pm := q.AddNode("pm", "PM")
	ai := q.AddNode("ai", "AI")
	bio := q.AddNode("bio", "Bio")
	db := q.AddNode("db", "DB")
	se := q.AddNode("se", "SE")
	q.AddEdge(pm, ai)  // 0
	q.AddEdge(ai, bio) // 1
	q.AddEdge(db, ai)  // 2
	q.AddEdge(ai, se)  // 3
	q.AddEdge(se, db)  // 4

	v1 := pattern.New("V1") // AI->Bio (e1), PM->AI (e2)
	ai1 := v1.AddNode("ai", "AI")
	v1.AddEdge(ai1, v1.AddNode("bio", "Bio"))
	v1.AddEdge(v1.AddNode("pm", "PM"), ai1)

	v2 := pattern.New("V2") // DB->AI, AI->SE, SE->DB (cycle)
	db2 := v2.AddNode("db", "DB")
	ai2 := v2.AddNode("ai", "AI")
	se2 := v2.AddNode("se", "SE")
	v2.AddEdge(db2, ai2)
	v2.AddEdge(ai2, se2)
	v2.AddEdge(se2, db2)

	return g, q, view.NewSet(view.Define("", v1), view.Define("", v2))
}

// TestExample4MatchJoin verifies the Fig. 3 walkthrough: the merged views
// contain the invalid matches (AI1,SE1), (DB2,AI1), (SE1,DB2) which the
// fixpoint removes, yielding the Example 4 table.
func TestExample4MatchJoin(t *testing.T) {
	g, q, vs := fig3Instance()
	l, ok, err := Contain(context.Background(), q, vs, 1)
	if err != nil || !ok {
		t.Fatalf("Qs3 ⊑ {V1,V2} expected: %v %v", ok, err)
	}
	x, _ := view.Materialize(context.Background(), g, vs, 1)

	// The raw view extensions do hold the to-be-removed matches.
	v2res := x.Exts[1].Result
	if !v2res.Edges[1].Has(1, 5) { // (AI1,SE1) ∈ Se4
		t.Fatalf("V2(G) missing (AI1,SE1): %v", v2res.Edges[1].Pairs)
	}
	if !v2res.Edges[0].Has(4, 1) { // (DB2,AI1) ∈ Se3
		t.Fatalf("V2(G) missing (DB2,AI1): %v", v2res.Edges[0].Pairs)
	}

	got, st, _ := MatchJoin(context.Background(), q, x, l, 1)
	want := simulation.Simulate(context.Background(), g, q, 1)
	if !got.Equal(want) {
		t.Fatalf("MatchJoin != Match on Fig. 3\ngot:  %v\nwant: %v", got, want)
	}
	// Exactly the three invalid matches are removed.
	if st.PairKills != 3 {
		t.Fatalf("PairKills = %d, want 3 ((AI1,SE1),(DB2,AI1),(SE1,DB2))", st.PairKills)
	}
	if got.Edges[3].Has(1, 5) || got.Edges[2].Has(4, 1) || got.Edges[4].Has(5, 4) {
		t.Fatalf("invalid matches survived: %v", got)
	}
}

// --- randomized equivalence: the core of Theorem 1 ---

// glueContainedQuery builds a query that is contained in vs by
// construction: it copies whole view patterns, gluing them at
// condition-equivalent nodes, skipping glue attempts that would duplicate
// edges (see DESIGN.md §2). Returns nil when gluing failed to produce a
// connected multi-view query.
func glueContainedQuery(rng *rand.Rand, vs *view.Set, glues int) *pattern.Pattern {
	base := vs.Defs[rng.Intn(vs.Card())].Pattern
	q := pattern.New("q")
	for _, n := range base.Nodes {
		q.AddNode("", n.Label, n.Preds...)
	}
	for _, e := range base.Edges {
		q.AddBoundedEdge(e.From, e.To, e.Bound)
	}
	for g := 0; g < glues; g++ {
		w := vs.Defs[rng.Intn(vs.Card())].Pattern
		// Candidate glue points: (view node, query node) with equivalent
		// conditions.
		type gp struct{ vx, qu int }
		var cands []gp
		for vx := range w.Nodes {
			for qu := range q.Nodes {
				if pattern.NodeConditionsEquivalent(&w.Nodes[vx], &q.Nodes[qu]) {
					cands = append(cands, gp{vx, qu})
				}
			}
		}
		if len(cands) == 0 {
			continue
		}
		pick := cands[rng.Intn(len(cands))]
		// Map view nodes: glue point to the query node, others fresh.
		m := make([]int, len(w.Nodes))
		added := 0
		for vx := range w.Nodes {
			if vx == pick.vx {
				m[vx] = pick.qu
			} else {
				m[vx] = len(q.Nodes) + added
				added++
			}
		}
		// Abort the attempt if any copied edge already exists.
		conflict := false
		for _, e := range w.Edges {
			from, to := m[e.From], m[e.To]
			if from < len(q.Nodes) && to < len(q.Nodes) {
				for _, qe := range q.Edges {
					if qe.From == from && qe.To == to {
						conflict = true
					}
				}
			}
		}
		if conflict {
			continue
		}
		for vx, n := range w.Nodes {
			if vx != pick.vx {
				q.AddNode("", n.Label, append([]pattern.Predicate(nil), n.Preds...)...)
			}
		}
		for _, e := range w.Edges {
			q.AddBoundedEdge(m[e.From], m[e.To], e.Bound)
		}
	}
	if err := q.Validate(); err != nil {
		return nil
	}
	return q
}

func randomViews(rng *rand.Rand, labels []string, bounded bool) *view.Set {
	var defs []*view.Definition
	nViews := 3 + rng.Intn(3)
	for i := 0; i < nViews; i++ {
		p := pattern.New(fmt.Sprintf("v%d", i))
		pn := 2 + rng.Intn(2)
		for j := 0; j < pn; j++ {
			p.AddNode("", labels[rng.Intn(len(labels))])
		}
		for j := 1; j < pn; j++ {
			k := rng.Intn(j)
			if rng.Intn(2) == 0 {
				p.AddEdge(k, j)
			} else {
				p.AddEdge(j, k)
			}
		}
		if bounded {
			for k := range p.Edges {
				if rng.Intn(5) == 0 {
					p.Edges[k].Bound = pattern.Unbounded
				} else {
					p.Edges[k].Bound = pattern.Bound(1 + rng.Intn(3))
				}
			}
		}
		defs = append(defs, view.Define("", p))
	}
	return view.NewSet(defs...)
}

func randomDataGraph(rng *rand.Rand, labels []string) *graph.Graph {
	n := 6 + rng.Intn(14)
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(labels[rng.Intn(len(labels))])
	}
	m := rng.Intn(4 * n)
	for i := 0; i < m; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return g
}

// TestTheorem1Plain: whenever Contain holds, MatchJoin (all variants)
// computes exactly Qs(G), across random instances.
func TestTheorem1Plain(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := rand.New(rand.NewSource(41))
	tested := 0
	for trial := 0; trial < 300 && tested < 120; trial++ {
		vs := randomViews(rng, labels, false)
		q := glueContainedQuery(rng, vs, rng.Intn(3))
		if q == nil {
			continue
		}
		l, ok, err := Contain(context.Background(), q, vs, 1)
		if err != nil {
			t.Fatalf("Contain: %v", err)
		}
		if !ok {
			t.Fatalf("trial %d: glued query should be contained\nq: %s", trial, q)
		}
		g := randomDataGraph(rng, labels)
		x, _ := view.Materialize(context.Background(), g, vs, 1)
		want := simulation.Simulate(context.Background(), g, q, 1)

		got, _, _ := MatchJoin(context.Background(), q, x, l, 1)
		if !got.Equal(want) {
			t.Fatalf("trial %d: MatchJoin != Match\nq: %s\ngot:  %v\nwant: %v", trial, q, got, want)
		}
		gotR, _ := MatchJoinRanked(q, x, l)
		if !gotR.Equal(want) {
			t.Fatalf("trial %d: MatchJoinRanked != Match\nq: %s", trial, q)
		}
		gotN, _ := MatchJoinNaive(q, x, l)
		if !gotN.Equal(want) {
			t.Fatalf("trial %d: MatchJoinNaive != Match\nq: %s", trial, q)
		}
		tested++
	}
	if tested < 50 {
		t.Fatalf("only %d usable trials", tested)
	}
}

// TestTheorem1Bounded: the same equivalence for bounded patterns,
// including recorded distances (BMatchJoin vs BMatch).
func TestTheorem1Bounded(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := rand.New(rand.NewSource(43))
	tested := 0
	for trial := 0; trial < 400 && tested < 100; trial++ {
		vs := randomViews(rng, labels, true)
		q := glueContainedQuery(rng, vs, rng.Intn(3))
		if q == nil {
			continue
		}
		l, ok, err := BContain(q, vs)
		if err != nil {
			t.Fatalf("BContain: %v", err)
		}
		if !ok {
			t.Fatalf("trial %d: glued bounded query should be contained\nq: %s", trial, q)
		}
		g := randomDataGraph(rng, labels)
		x, _ := view.Materialize(context.Background(), g, vs, 1)
		want := simulation.SimulateBounded(context.Background(), g, q, 1)

		got, _ := BMatchJoin(q, x, l)
		if !got.Equal(want) {
			t.Fatalf("trial %d: BMatchJoin != BMatch\nq: %s\ngot:  %v\nwant: %v", trial, q, got, want)
		}
		gotR, _ := MatchJoinRanked(q, x, l)
		if !gotR.Equal(want) {
			t.Fatalf("trial %d: ranked variant differs on bounded pattern\nq: %s", trial, q)
		}
		gotN, _ := MatchJoinNaive(q, x, l)
		if !gotN.Equal(want) {
			t.Fatalf("trial %d: naive variant differs on bounded pattern\nq: %s", trial, q)
		}
		tested++
	}
	if tested < 40 {
		t.Fatalf("only %d usable trials", tested)
	}
}

// TestAnswerStrategies: Answer with minimal/minimum subsets still matches
// the direct result; not-contained queries report ErrNotContained.
func TestAnswerStrategies(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := rand.New(rand.NewSource(47))
	tested := 0
	for trial := 0; trial < 200 && tested < 60; trial++ {
		vs := randomViews(rng, labels, false)
		q := glueContainedQuery(rng, vs, 1+rng.Intn(2))
		if q == nil {
			continue
		}
		g := randomDataGraph(rng, labels)
		x, _ := view.Materialize(context.Background(), g, vs, 1)
		want := simulation.Simulate(context.Background(), g, q, 1)
		for _, s := range []Strategy{UseAll, UseMinimal, UseMinimum} {
			got, used, _, err := Answer(context.Background(), q, x, s, 1)
			if err != nil {
				t.Fatalf("Answer(%v): %v", s, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d: Answer(%v) mismatch\nq: %s", trial, s, q)
			}
			if len(used) == 0 {
				t.Fatalf("Answer used no views")
			}
		}
		tested++
	}
	if tested < 30 {
		t.Fatalf("only %d usable trials", tested)
	}
}

func TestAnswerNotContained(t *testing.T) {
	g := graph.New()
	g.AddNode("A")
	g.AddNode("Z")
	g.AddEdge(0, 1)
	v := pattern.New("v")
	v.AddEdge(v.AddNode("a", "A"), v.AddNode("b", "B"))
	vs := view.NewSet(view.Define("", v))
	x, _ := view.Materialize(context.Background(), g, vs, 1)

	q := pattern.New("q")
	q.AddEdge(q.AddNode("a", "A"), q.AddNode("z", "Z"))
	if _, _, _, err := Answer(context.Background(), q, x, UseAll, 1); err != ErrNotContained {
		t.Fatalf("want ErrNotContained, got %v", err)
	}
}

// TestLemma2PathPattern: for a path (DAG) pattern, the ranked variant
// scans each match set exactly once.
func TestLemma2PathPattern(t *testing.T) {
	labels := []string{"A", "B", "C", "D"}
	// Path view/query: A -> B -> C -> D as one view; query = same.
	p := pattern.New("path")
	prev := p.AddNode("", labels[0])
	for i := 1; i < 4; i++ {
		cur := p.AddNode("", labels[i])
		p.AddEdge(prev, cur)
		cur2 := cur
		prev = cur2
	}
	vs := view.NewSet(view.Define("v", p.Clone()))
	rng := rand.New(rand.NewSource(53))
	g := randomDataGraph(rng, labels)
	l, ok, err := Contain(context.Background(), p, vs, 1)
	if err != nil || !ok {
		t.Fatalf("path ⊑ {itself} must hold: %v %v", ok, err)
	}
	x, _ := view.Materialize(context.Background(), g, vs, 1)
	_, st := MatchJoinRanked(p, x, l)
	if st.EdgeScans > len(p.Edges) {
		t.Fatalf("Lemma 2 violated on a path pattern: %d scans for %d edges", st.EdgeScans, len(p.Edges))
	}
}

// TestNaiveDoesMoreScansOnCycles: sanity for the Exp-2 ablation metric —
// on a cyclic pattern where invalid matches cascade, the naive variant
// needs at least as many scans as the ranked one.
func TestNaiveDoesMoreScansOnCycles(t *testing.T) {
	g, q, vs := fig3Instance()
	l, _, _ := Contain(context.Background(), q, vs, 1)
	x, _ := view.Materialize(context.Background(), g, vs, 1)
	_, stR := MatchJoinRanked(q, x, l)
	_, stN := MatchJoinNaive(q, x, l)
	if stN.EdgeScans < stR.EdgeScans {
		t.Fatalf("naive scans (%d) < ranked scans (%d)?", stN.EdgeScans, stR.EdgeScans)
	}
	if stN.EdgeScans < 2*len(q.Edges) {
		t.Fatalf("naive should need at least two passes, got %d scans", stN.EdgeScans)
	}
}

// TestMatchJoinEmptyWhenViewEmpty: a contained query over a graph where a
// needed view has no matches yields ∅, like direct evaluation.
func TestMatchJoinEmptyWhenViewEmpty(t *testing.T) {
	g := graph.New()
	g.AddNode("A") // no edges at all
	v := pattern.New("v")
	v.AddEdge(v.AddNode("a", "A"), v.AddNode("b", "B"))
	vs := view.NewSet(view.Define("", v))
	x, _ := view.Materialize(context.Background(), g, vs, 1)
	q := v.Clone()
	l, ok, _ := Contain(context.Background(), q, vs, 1)
	if !ok {
		t.Fatalf("q ⊑ {q} must hold")
	}
	res, _, _ := MatchJoin(context.Background(), q, x, l, 1)
	if res.Matched {
		t.Fatalf("expected ∅")
	}
	want := simulation.Simulate(context.Background(), g, q, 1)
	if !res.Equal(want) {
		t.Fatalf("∅ results should agree")
	}
}
