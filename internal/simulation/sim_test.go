package simulation

import (
	"context"
	"math/rand"
	"testing"

	"graphviews/internal/graph"
	"graphviews/internal/pattern"
)

// fig1Graph builds the Fig. 1(a) recommendation network (see DESIGN.md §3).
// Node ids: Bob=0 Walt=1 Mat=2 Fred=3 Mary=4 Dan=5 Pat=6 Bill=7 Jean=8 Emmy=9.
func fig1Graph() *graph.Graph {
	g := graph.New()
	for _, l := range []string{"PM", "PM", "DBA", "DBA", "DBA", "PRG", "PRG", "PRG", "BA", "ST"} {
		g.AddNode(l)
	}
	edges := [][2]graph.NodeID{
		{0, 2}, {1, 2}, // PM -> Mat
		{0, 5}, {1, 7}, // Bob->Dan, Walt->Bill
		{3, 6}, {2, 6}, {4, 7}, // DBA -> PRG
		{5, 3}, {6, 4}, {6, 2}, {7, 2}, // PRG -> DBA
		{1, 8}, {5, 9}, // Walt->Jean (BA), Dan->Emmy (ST): background noise
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// fig1Qs builds the Fig. 1(c) pattern.
// Node indices: pm=0 dba1=1 prg1=2 dba2=3 prg2=4.
// Edge indices: 0:(pm,dba1) 1:(pm,prg2) 2:(dba1,prg1) 3:(prg1,dba2)
// 4:(dba2,prg2) 5:(prg2,dba1).
func fig1Qs() *pattern.Pattern {
	p := pattern.New("Qs")
	pm := p.AddNode("pm", "PM")
	dba1 := p.AddNode("dba1", "DBA")
	prg1 := p.AddNode("prg1", "PRG")
	dba2 := p.AddNode("dba2", "DBA")
	prg2 := p.AddNode("prg2", "PRG")
	p.AddEdge(pm, dba1)
	p.AddEdge(pm, prg2)
	p.AddEdge(dba1, prg1)
	p.AddEdge(prg1, dba2)
	p.AddEdge(dba2, prg2)
	p.AddEdge(prg2, dba1)
	return p
}

func pairs(ps ...[2]graph.NodeID) []Pair {
	out := make([]Pair, len(ps))
	for i, p := range ps {
		out[i] = Pair{p[0], p[1]}
	}
	return out
}

func checkEdgeSet(t *testing.T, res *Result, ei int, want []Pair) {
	t.Helper()
	got := res.Edges[ei].Pairs
	if len(got) != len(want) {
		t.Fatalf("edge %d: got %v, want %v", ei, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: got %v, want %v", ei, got, want)
		}
	}
}

// TestExample2 pins the result table of the paper's Example 2.
func TestExample2(t *testing.T) {
	g := fig1Graph()
	p := fig1Qs()
	res := Simulate(context.Background(), g, p, 1)
	if !res.Matched {
		t.Fatalf("Qs should match G")
	}
	const (
		bob  = graph.NodeID(0)
		walt = graph.NodeID(1)
		mat  = graph.NodeID(2)
		fred = graph.NodeID(3)
		mary = graph.NodeID(4)
		dan  = graph.NodeID(5)
		pat  = graph.NodeID(6)
		bill = graph.NodeID(7)
	)
	// (PM,DBA1) = {(Bob,Mat),(Walt,Mat)}
	checkEdgeSet(t, res, 0, pairs([2]graph.NodeID{bob, mat}, [2]graph.NodeID{walt, mat}))
	// (PM,PRG2) = {(Bob,Dan),(Walt,Bill)}
	checkEdgeSet(t, res, 1, pairs([2]graph.NodeID{bob, dan}, [2]graph.NodeID{walt, bill}))
	// (DBA1,PRG1) = {(Mat,Pat),(Fred,Pat),(Mary,Bill)} sorted by src id
	wantDBAPRG := pairs([2]graph.NodeID{mat, pat}, [2]graph.NodeID{fred, pat}, [2]graph.NodeID{mary, bill})
	checkEdgeSet(t, res, 2, wantDBAPRG)
	// (DBA2,PRG2) identical
	checkEdgeSet(t, res, 4, wantDBAPRG)
	// (PRG1,DBA2) = {(Dan,Fred),(Pat,Mary),(Pat,Mat),(Bill,Mat)} sorted
	wantPRGDBA := pairs(
		[2]graph.NodeID{dan, fred},
		[2]graph.NodeID{pat, mat}, [2]graph.NodeID{pat, mary},
		[2]graph.NodeID{bill, mat},
	)
	checkEdgeSet(t, res, 3, wantPRGDBA)
	checkEdgeSet(t, res, 5, wantPRGDBA)

	if res.Size() != 2+2+3+3+4+4 {
		t.Fatalf("|Qs(G)| = %d", res.Size())
	}
}

// fig3Graph builds the reconstructed Fig. 3(a) graph (DESIGN.md §3).
// Ids: PM1=0 AI1=1 AI2=2 DB1=3 DB2=4 SE1=5 SE2=6 Bio1=7.
func fig3Graph() *graph.Graph {
	g := graph.New()
	for _, l := range []string{"PM", "AI", "AI", "DB", "DB", "SE", "SE", "Bio"} {
		g.AddNode(l)
	}
	edges := [][2]graph.NodeID{
		{0, 1}, {0, 2}, // PM1 -> AI1, AI2
		{2, 7},         // AI2 -> Bio1
		{3, 2}, {4, 1}, // DB1 -> AI2, DB2 -> AI1
		{1, 5}, {2, 6}, // AI1 -> SE1, AI2 -> SE2
		{5, 3 + 1}, {6, 3}, // SE1 -> DB2, SE2 -> DB1
		{5, 7}, // SE1 -> Bio1
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// fig3Qs builds the Fig. 3(c) pattern.
// Nodes: pm=0 ai=1 bio=2 db=3 se=4.
// Edges: 0:(pm,ai) 1:(ai,bio) 2:(db,ai) 3:(ai,se) 4:(se,db).
func fig3Qs() *pattern.Pattern {
	p := pattern.New("Qs3")
	pm := p.AddNode("pm", "PM")
	ai := p.AddNode("ai", "AI")
	bio := p.AddNode("bio", "Bio")
	db := p.AddNode("db", "DB")
	se := p.AddNode("se", "SE")
	p.AddEdge(pm, ai)
	p.AddEdge(ai, bio)
	p.AddEdge(db, ai)
	p.AddEdge(ai, se)
	p.AddEdge(se, db)
	return p
}

// TestExample4Simulation pins the Example 4 result table.
func TestExample4Simulation(t *testing.T) {
	g := fig3Graph()
	p := fig3Qs()
	res := Simulate(context.Background(), g, p, 1)
	if !res.Matched {
		t.Fatalf("Qs3 should match")
	}
	checkEdgeSet(t, res, 0, pairs([2]graph.NodeID{0, 2})) // (PM1,AI2)
	checkEdgeSet(t, res, 1, pairs([2]graph.NodeID{2, 7})) // (AI2,Bio1)
	checkEdgeSet(t, res, 2, pairs([2]graph.NodeID{3, 2})) // (DB1,AI2)
	checkEdgeSet(t, res, 3, pairs([2]graph.NodeID{2, 6})) // (AI2,SE2)
	checkEdgeSet(t, res, 4, pairs([2]graph.NodeID{6, 3})) // (SE2,DB1)
}

// TestExample8Bounded pins the Example 8 result table (fe(AI,Bio)=2, rest 1,
// with the (DB2,AI1) erratum fix of DESIGN.md §3).
func TestExample8Bounded(t *testing.T) {
	g := fig3Graph()
	p := fig3Qs()
	p.Edges[1].Bound = 2 // (ai,bio) within 2 hops
	res := SimulateBounded(context.Background(), g, p, 1)
	if !res.Matched {
		t.Fatalf("Qb should match")
	}
	checkEdgeSet(t, res, 0, pairs([2]graph.NodeID{0, 1}, [2]graph.NodeID{0, 2})) // (PM1,AI1),(PM1,AI2)
	checkEdgeSet(t, res, 1, pairs([2]graph.NodeID{1, 7}, [2]graph.NodeID{2, 7})) // (AI1,Bio1) via SE1, (AI2,Bio1)
	if d := res.Edges[1].Dist(1, 7); d != 2 {
		t.Fatalf("dist(AI1,Bio1) = %d, want 2 (path through SE1)", d)
	}
	if d := res.Edges[1].Dist(2, 7); d != 1 {
		t.Fatalf("dist(AI2,Bio1) = %d, want 1", d)
	}
	checkEdgeSet(t, res, 2, pairs([2]graph.NodeID{3, 2}, [2]graph.NodeID{4, 1})) // (DB1,AI2),(DB2,AI1)
	checkEdgeSet(t, res, 3, pairs([2]graph.NodeID{1, 5}, [2]graph.NodeID{2, 6})) // (AI1,SE1),(AI2,SE2)
	checkEdgeSet(t, res, 4, pairs([2]graph.NodeID{5, 4}, [2]graph.NodeID{6, 3})) // (SE1,DB2),(SE2,DB1)
}

func TestNoMatch(t *testing.T) {
	g := graph.New()
	g.AddNode("A")
	g.AddNode("B")
	g.AddEdge(0, 1)
	// Pattern needs B -> A which G lacks.
	p := pattern.New("q")
	a := p.AddNode("a", "A")
	b := p.AddNode("b", "B")
	p.AddEdge(b, a)
	res := Simulate(context.Background(), g, p, 1)
	if res.Matched || res.Size() != 0 {
		t.Fatalf("expected empty result, got %v", res)
	}
	// Same under bounded and dual.
	if SimulateBounded(context.Background(), g, p, 1).Matched {
		t.Fatalf("bounded should not match")
	}
	if SimulateDual(context.Background(), g, p, 1).Matched {
		t.Fatalf("dual should not match")
	}
}

func TestUnknownLabelNoMatch(t *testing.T) {
	g := graph.New()
	g.AddNode("A")
	p := pattern.New("q")
	p.AddNode("z", "Z")
	if Simulate(context.Background(), g, p, 1).Matched {
		t.Fatalf("unknown label must not match")
	}
}

func TestSingleNodePattern(t *testing.T) {
	g := graph.New()
	g.AddNode("A")
	g.AddNode("A")
	g.AddNode("B")
	p := pattern.New("q")
	p.AddNode("a", "A")
	res := Simulate(context.Background(), g, p, 1)
	if !res.Matched || len(res.Sim[0]) != 2 {
		t.Fatalf("single-node pattern: %v", res.Sim)
	}
}

func TestSelfLoopPattern(t *testing.T) {
	// Pattern A->A (self loop) requires a node with an A-successor chain.
	g := graph.New()
	a1 := g.AddNode("A")
	a2 := g.AddNode("A")
	g.AddNode("A") // a3: no outgoing edge
	g.AddEdge(a1, a2)
	g.AddEdge(a2, a1)
	p := pattern.New("q")
	u := p.AddNode("u", "A")
	p.AddEdge(u, u)
	res := Simulate(context.Background(), g, p, 1)
	if !res.Matched {
		t.Fatalf("self-loop pattern should match the 2-cycle")
	}
	if len(res.Sim[0]) != 2 {
		t.Fatalf("sim(u) = %v, want {a1,a2}", res.Sim[0])
	}
}

func TestBoundedUnbounded(t *testing.T) {
	// a -> x -> x -> b chain: A and B at distance 3.
	g := graph.New()
	a := g.AddNode("A")
	x1 := g.AddNode("X")
	x2 := g.AddNode("X")
	b := g.AddNode("B")
	g.AddEdge(a, x1)
	g.AddEdge(x1, x2)
	g.AddEdge(x2, b)

	p := pattern.New("q")
	pa := p.AddNode("a", "A")
	pb := p.AddNode("b", "B")
	p.AddBoundedEdge(pa, pb, 2)
	if SimulateBounded(context.Background(), g, p, 1).Matched {
		t.Fatalf("bound 2 must not reach distance 3")
	}
	p.Edges[0].Bound = 3
	res := SimulateBounded(context.Background(), g, p, 1)
	if !res.Matched {
		t.Fatalf("bound 3 should match")
	}
	if d := res.Edges[0].Dist(a, b); d != 3 {
		t.Fatalf("dist = %d, want 3", d)
	}
	p.Edges[0].Bound = pattern.Unbounded
	if !SimulateBounded(context.Background(), g, p, 1).Matched {
		t.Fatalf("* bound should match")
	}
}

func TestBoundedEqualsSimulateOnPlainPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		g, p := randomInstance(rng, 3)
		a := Simulate(context.Background(), g, p, 1)
		b := SimulateBounded(context.Background(), g, p, 1)
		if !a.Equal(b) {
			t.Fatalf("trial %d: Simulate != SimulateBounded on plain pattern\nG: %v\nP: %s\nsim: %v\nbounded: %v",
				trial, g, p, a, b)
		}
	}
}

func TestSimulateAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 80; trial++ {
		g, p := randomInstance(rng, 3)
		a := Simulate(context.Background(), g, p, 1)
		b := BruteSimulate(g, p)
		if !a.Equal(b) {
			t.Fatalf("trial %d: engine != brute\nG: %v\nP: %s\ngot %v\nwant %v", trial, g, p, a, b)
		}
	}
}

func TestBoundedAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		g, p := randomInstance(rng, 3)
		for i := range p.Edges {
			switch rng.Intn(4) {
			case 0:
				p.Edges[i].Bound = pattern.Unbounded
			default:
				p.Edges[i].Bound = pattern.Bound(1 + rng.Intn(3))
			}
		}
		a := SimulateBounded(context.Background(), g, p, 1)
		b := BruteBounded(g, p)
		if !a.Equal(b) {
			t.Fatalf("trial %d: bounded engine != brute\nG: %v\nP: %s\ngot %v\nwant %v", trial, g, p, a, b)
		}
	}
}

func TestDualAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		g, p := randomInstance(rng, 3)
		a := SimulateDual(context.Background(), g, p, 1)
		b := BruteDual(g, p)
		if !a.Equal(b) {
			t.Fatalf("trial %d: dual engine != brute\nG: %v\nP: %s\ngot %v\nwant %v", trial, g, p, a, b)
		}
	}
}

// TestSimulationInvariants checks definitional invariants on random
// instances: every retained node pair satisfies the simulation conditions,
// and the relation is maximal (no removed candidate could be added back).
func TestSimulationInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		g, p := randomInstance(rng, 3)
		res := Simulate(context.Background(), g, p, 1)
		if !res.Matched {
			continue
		}
		inSim := make([]map[graph.NodeID]bool, len(p.Nodes))
		for u := range inSim {
			inSim[u] = map[graph.NodeID]bool{}
			for _, v := range res.Sim[u] {
				inSim[u][v] = true
			}
		}
		// (a) soundness: forward condition holds for every pair.
		for u := range p.Nodes {
			for _, v := range res.Sim[u] {
				for _, ei := range p.OutEdges(u) {
					tgt := p.Edges[ei].To
					ok := false
					for _, w := range g.Out(v) {
						if inSim[tgt][w] {
							ok = true
							break
						}
					}
					if !ok {
						t.Fatalf("trial %d: (%d,%v) lacks support on edge %d", trial, u, v, ei)
					}
				}
			}
		}
		// (b) edge match sets are exactly E ∩ (sim(u) × sim(u')).
		for ei, e := range p.Edges {
			count := 0
			for _, v := range res.Sim[e.From] {
				for _, w := range g.Out(v) {
					if inSim[e.To][w] {
						count++
						if !res.Edges[ei].Has(v, w) {
							t.Fatalf("trial %d: missing pair (%v,%v) in edge %d", trial, v, w, ei)
						}
					}
				}
			}
			if count != res.Edges[ei].Len() {
				t.Fatalf("trial %d: edge %d has %d pairs, want %d", trial, ei, res.Edges[ei].Len(), count)
			}
		}
	}
}

// TestDualSubsetOfSimulation: dual simulation refines simulation.
func TestDualSubsetOfSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		g, p := randomInstance(rng, 3)
		s := Simulate(context.Background(), g, p, 1)
		d := SimulateDual(context.Background(), g, p, 1)
		if !d.Matched {
			continue
		}
		if !s.Matched {
			t.Fatalf("trial %d: dual matched but simulation did not", trial)
		}
		for u := range p.Nodes {
			in := map[graph.NodeID]bool{}
			for _, v := range s.Sim[u] {
				in[v] = true
			}
			for _, v := range d.Sim[u] {
				if !in[v] {
					t.Fatalf("trial %d: dual match (%d,%v) not in simulation", trial, u, v)
				}
			}
		}
	}
}

// TestBoundedMonotoneInBounds: growing a bound can only grow match sets.
func TestBoundedMonotoneInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		g, p := randomInstance(rng, 3)
		p2 := p.Clone()
		for i := range p2.Edges {
			p2.Edges[i].Bound = p.Edges[i].Bound + 1
		}
		a := SimulateBounded(context.Background(), g, p, 1)
		b := SimulateBounded(context.Background(), g, p2, 1)
		if a.Matched && !b.Matched {
			t.Fatalf("trial %d: larger bounds lost the match", trial)
		}
		if !a.Matched {
			continue
		}
		for ei := range a.Edges {
			for _, pr := range a.Edges[ei].Pairs {
				if !b.Edges[ei].Has(pr.Src, pr.Dst) {
					t.Fatalf("trial %d: pair %v lost with larger bound", trial, pr)
				}
			}
		}
	}
}

func TestStrongSimulationBasics(t *testing.T) {
	// Strong simulation refines dual simulation; on Fig. 3 it still finds
	// the cycle match.
	g := fig3Graph()
	p := fig3Qs()
	res := SimulateStrong(g, p)
	if !res.Matched {
		t.Fatalf("strong simulation should match Fig. 3")
	}
	d := SimulateDual(context.Background(), g, p, 1)
	for u := range p.Nodes {
		in := map[graph.NodeID]bool{}
		for _, v := range d.Sim[u] {
			in[v] = true
		}
		for _, v := range res.Sim[u] {
			if !in[v] {
				t.Fatalf("strong match (%d,%v) not in dual simulation", u, v)
			}
		}
	}
}

func TestStrongSimulationLocality(t *testing.T) {
	// Two far-apart halves: A->B ... C (C irrelevant). Strong = dual here;
	// mostly exercises ball extraction on disconnected graphs.
	g := graph.New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	g.AddNode("C")
	g.AddEdge(a, b)
	p := pattern.New("q")
	pa := p.AddNode("a", "A")
	pb := p.AddNode("b", "B")
	p.AddEdge(pa, pb)
	res := SimulateStrong(g, p)
	if !res.Matched || !res.Edges[0].Has(a, b) {
		t.Fatalf("strong simulation missed direct edge: %v", res)
	}
}

func TestPredicateFiltering(t *testing.T) {
	g := graph.New()
	v1 := g.AddNode("video")
	g.SetAttr(v1, "rate", 5)
	v2 := g.AddNode("video")
	g.SetAttr(v2, "rate", 2)
	u := g.AddNode("user")
	g.AddEdge(u, v1)
	g.AddEdge(u, v2)

	p := pattern.New("q")
	pu := p.AddNode("u", "user")
	pv := p.AddNode("v", "video", pattern.IntPred("rate", pattern.OpGe, 4))
	p.AddEdge(pu, pv)
	res := Simulate(context.Background(), g, p, 1)
	if !res.Matched {
		t.Fatalf("should match")
	}
	if len(res.Sim[pv]) != 1 || res.Sim[pv][0] != v1 {
		t.Fatalf("predicate filtering wrong: %v", res.Sim[pv])
	}
}

// TestStrongSubsetOfDualRandom: strong simulation refines dual simulation
// on random instances (the containment chain sim ⊇ dual ⊇ strong of Ma et
// al. [28]).
func TestStrongSubsetOfDualRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		g, p := randomInstance(rng, 2)
		s := SimulateStrong(g, p)
		if !s.Matched {
			continue
		}
		d := SimulateDual(context.Background(), g, p, 1)
		if !d.Matched {
			t.Fatalf("trial %d: strong matched but dual did not", trial)
		}
		for u := range p.Nodes {
			in := map[graph.NodeID]bool{}
			for _, v := range d.Sim[u] {
				in[v] = true
			}
			for _, v := range s.Sim[u] {
				if !in[v] {
					t.Fatalf("trial %d: strong match (%d,%v) not in dual simulation", trial, u, v)
				}
			}
		}
		for ei := range s.Edges {
			for _, pr := range s.Edges[ei].Pairs {
				if !d.Edges[ei].Has(pr.Src, pr.Dst) {
					t.Fatalf("trial %d: strong pair %v not in dual match set", trial, pr)
				}
			}
		}
	}
}

// randomInstance builds a random labeled graph and a random connected
// plain pattern over the same alphabet.
func randomInstance(rng *rand.Rand, labels int) (*graph.Graph, *pattern.Pattern) {
	alphabet := []string{"A", "B", "C", "D", "E"}[:labels]
	n := 4 + rng.Intn(12)
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(alphabet[rng.Intn(labels)])
	}
	m := rng.Intn(3*n + 1)
	for i := 0; i < m; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}

	pn := 2 + rng.Intn(3)
	p := pattern.New("q")
	for i := 0; i < pn; i++ {
		p.AddNode("", alphabet[rng.Intn(labels)])
	}
	// Spanning-tree edges for connectivity, random orientation.
	for i := 1; i < pn; i++ {
		j := rng.Intn(i)
		if rng.Intn(2) == 0 {
			p.AddEdge(j, i)
		} else {
			p.AddEdge(i, j)
		}
	}
	// A few extra edges.
	for i := 0; i < rng.Intn(3); i++ {
		a, b := rng.Intn(pn), rng.Intn(pn)
		dup := false
		for _, e := range p.Edges {
			if e.From == a && e.To == b {
				dup = true
			}
		}
		if !dup {
			p.AddEdge(a, b)
		}
	}
	return g, p
}

// TestMinimizePreservesMatches: property test linking pattern.Minimize to
// the engine — match sets of original nodes equal those of their
// representatives.
func TestMinimizePreservesMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		g, p := randomInstance(rng, 2) // few labels => merges happen
		m := pattern.Minimize(p)
		a := Simulate(context.Background(), g, p, 1)
		b := Simulate(context.Background(), g, m.P, 1)
		if a.Matched != b.Matched {
			t.Fatalf("trial %d: minimize changed matchability\nP:%s\nmin:%s", trial, p, m.P)
		}
		if !a.Matched {
			continue
		}
		for u := range p.Nodes {
			got := b.Sim[m.NodeMap[u]]
			want := a.Sim[u]
			if len(got) != len(want) {
				t.Fatalf("trial %d: node %d match set changed: %v vs %v\nP:%s\nmin:%s",
					trial, u, want, got, p, m.P)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: node %d match set changed: %v vs %v", trial, u, want, got)
				}
			}
		}
	}
}
