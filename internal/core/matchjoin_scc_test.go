package core

// Determinism and equivalence tests for the SCC-parallel MatchJoin
// fixpoint: MatchJoin must return results and stats byte-identical to
// its single-worker flat cascade at every worker count, on cyclic, DAG and
// bounded patterns, and both must agree with direct (bounded) simulation
// on contained queries (Theorem 1).

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"graphviews/internal/generator"
	"graphviews/internal/graph"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

var sccWorkerSweep = []int{1, 2, 4, 8}

// assertIdentical fails unless the parallel result/stats are
// byte-identical to the sequential reference — edge match sets with
// distances, derived node match sets, and all three work counters.
func assertIdentical(t *testing.T, label string, seqRes *simulation.Result, seqSt Stats, res *simulation.Result, st Stats) {
	t.Helper()
	if !res.Equal(seqRes) {
		t.Fatalf("%s: edge match sets differ\nseq: %v\npar: %v", label, seqRes, res)
	}
	if !reflect.DeepEqual(res.Sim, seqRes.Sim) {
		t.Fatalf("%s: node match sets differ\nseq: %v\npar: %v", label, seqRes.Sim, res.Sim)
	}
	if st != seqSt {
		t.Fatalf("%s: stats differ: seq %+v par %+v", label, seqSt, st)
	}
}

// runSweep evaluates q over x at every worker count and checks each
// against the sequential engine and, when want is non-nil, against the
// direct evaluation.
func runSweep(t *testing.T, label string, q *pattern.Pattern, x *view.Extensions, l *Lambda, want *simulation.Result) {
	t.Helper()
	seqRes, seqSt, _ := MatchJoin(context.Background(), q, x, l, 1)
	if want != nil && !seqRes.Equal(want) {
		t.Fatalf("%s: sequential MatchJoin != direct evaluation\ngot:  %v\nwant: %v", label, seqRes, want)
	}
	for _, w := range sccWorkerSweep {
		res, st, err := MatchJoin(context.Background(), q, x, l, w)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", label, w, err)
		}
		assertIdentical(t, label, seqRes, seqSt, res, st)
	}
}

// TestMatchJoinSCCNecklace: multi-SCC cyclic patterns (plain and
// bounded) across random data graphs.
func TestMatchJoinSCCNecklace(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		k := 2 + rng.Intn(4)
		bound := pattern.Bound(1)
		if trial%3 == 1 {
			bound = pattern.Bound(2 + rng.Intn(2))
		} else if trial%3 == 2 {
			bound = pattern.Unbounded
		}
		q, vs := generator.Necklace(rng, k, bound)
		l, ok, err := Contain(context.Background(), q, vs, 1)
		if err != nil || !ok {
			t.Fatalf("trial %d: necklace not contained in its views: %v %v", trial, ok, err)
		}
		g := generator.NecklaceGraph(rng, q, 30+rng.Intn(40), 150+rng.Intn(150))
		x, _ := view.Materialize(context.Background(), g, vs, 1)
		var want *simulation.Result
		if q.IsPlain() {
			want = simulation.Simulate(context.Background(), g, q, 1)
		} else {
			want = simulation.SimulateBounded(context.Background(), g, q, 1)
		}
		runSweep(t, "necklace", q, x, l, want)
	}
}

// TestMatchJoinSCCRandomGlued: the PR-1 randomized workloads (glued
// contained queries over random cyclic views), now sweeping the parallel
// fixpoint; covers DAG patterns, 2-cycles and empty results.
func TestMatchJoinSCCRandomGlued(t *testing.T) {
	labels := []string{"A", "B", "C"}
	for _, bounded := range []bool{false, true} {
		rng := rand.New(rand.NewSource(73))
		tested := 0
		for trial := 0; trial < 300 && tested < 80; trial++ {
			vs := randomViews(rng, labels, bounded)
			q := glueContainedQuery(rng, vs, rng.Intn(3))
			if q == nil {
				continue
			}
			l, ok, err := Contain(context.Background(), q, vs, 1)
			if err != nil || !ok {
				continue
			}
			g := randomDataGraph(rng, labels)
			x, _ := view.Materialize(context.Background(), g, vs, 1)
			runSweep(t, "glued", q, x, l, nil)
			tested++
		}
		if tested < 40 {
			t.Fatalf("bounded=%v: only %d usable trials", bounded, tested)
		}
	}
}

// TestMatchJoinSCCEmptySeeding: a view with no matches yields ∅ with the
// same canonical stats (EdgeScans stops at the first empty edge) at every
// worker count.
func TestMatchJoinSCCEmptySeeding(t *testing.T) {
	g := graph.New()
	g.AddNode("A") // no edges: the view has no matches
	v := pattern.New("v")
	v.AddEdge(v.AddNode("a", "A"), v.AddNode("b", "B"))
	vs := view.NewSet(view.Define("", v))
	x, _ := view.Materialize(context.Background(), g, vs, 1)
	q := v.Clone()
	l, ok, _ := Contain(context.Background(), q, vs, 1)
	if !ok {
		t.Fatal("q ⊑ {q} must hold")
	}
	seqRes, seqSt, _ := MatchJoin(context.Background(), q, x, l, 1)
	if seqRes.Matched {
		t.Fatal("expected ∅")
	}
	if seqSt.EdgeScans != 1 {
		t.Fatalf("EdgeScans = %d, want 1 (seeding stops at the first empty edge)", seqSt.EdgeScans)
	}
	for _, w := range sccWorkerSweep {
		res, st, err := MatchJoin(context.Background(), q, x, l, w)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "empty", seqRes, seqSt, res, st)
	}
}

// TestMatchJoinSCCCancellation: a cancelled context aborts both the
// seeding and the wave loop.
func TestMatchJoinSCCCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	q, vs := generator.Necklace(rng, 3, 1)
	l, ok, err := Contain(context.Background(), q, vs, 1)
	if err != nil || !ok {
		t.Fatalf("necklace not contained: %v %v", ok, err)
	}
	g := generator.NecklaceGraph(rng, q, 40, 200)
	x, _ := view.Materialize(context.Background(), g, vs, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := MatchJoin(ctx, q, x, l, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled MatchJoin: err = %v", err)
	}
}

// TestMatchJoinEdgeScansCountSeeding: on the success path the production
// engine reports exactly one seeding pass per query edge.
func TestMatchJoinEdgeScansCountSeeding(t *testing.T) {
	g, q, vs := fig3Instance()
	l, ok, err := Contain(context.Background(), q, vs, 1)
	if err != nil || !ok {
		t.Fatalf("Qs3 ⊑ {V1,V2} expected: %v %v", ok, err)
	}
	x, _ := view.Materialize(context.Background(), g, vs, 1)
	_, st, _ := MatchJoin(context.Background(), q, x, l, 1)
	if st.EdgeScans != len(q.Edges) {
		t.Fatalf("EdgeScans = %d, want %d (one seeding pass per edge)", st.EdgeScans, len(q.Edges))
	}
}
