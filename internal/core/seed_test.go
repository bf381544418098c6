package core

// Differential tests for MatchJoin's seeding: the k-way merge of strictly
// ascending λ runs must equal the append-then-normalize union of the
// pre-merge engine (refNormalizeMatches), and a single unfiltered run is
// read in place without ever leaking into the Result.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"graphviews/internal/graph"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// randomRun draws up to n distinct pairs over ids [0, ids) with
// distances in [1, maxDist], strictly ascending by (Src, Dst) like every
// extension match set. A small id space makes runs overlap.
func randomRun(rng *rand.Rand, ids, n int, maxDist int32) simulation.EdgeMatches {
	seen := map[simulation.Pair]bool{}
	var em simulation.EdgeMatches
	for i := 0; i < n; i++ {
		p := simulation.Pair{Src: graph.NodeID(rng.Intn(ids)), Dst: graph.NodeID(rng.Intn(ids))}
		if !seen[p] {
			seen[p] = true
			em.Pairs = append(em.Pairs, p)
		}
	}
	slices.SortFunc(em.Pairs, func(a, b simulation.Pair) int {
		if a.Src != b.Src {
			return int(a.Src) - int(b.Src)
		}
		return int(a.Dst) - int(b.Dst)
	})
	for range em.Pairs {
		em.Dists = append(em.Dists, 1+rng.Int31n(maxDist))
	}
	return em
}

// seedFixture wraps runs as single-edge view extensions (one view per
// run) and builds a star query hub→leaf_qi whose edge qi has bound
// bounds[qi] and λ(qi) = the views listed in perEdge[qi].
func seedFixture(runs []simulation.EdgeMatches, perEdge [][]int, bounds []pattern.Bound) (*pattern.Pattern, *view.Extensions, *Lambda) {
	x := &view.Extensions{Set: view.NewSet()}
	for i := range runs {
		vp := pattern.New(fmt.Sprintf("V%d", i))
		vp.AddBoundedEdge(vp.AddNode("a", "A"), vp.AddNode("b", "B"), pattern.Unbounded)
		d := view.Define(vp.Name, vp)
		x.Set.Defs = append(x.Set.Defs, d)
		x.Exts = append(x.Exts, &view.Extension{Def: d, Result: &simulation.Result{
			Pattern: vp,
			Matched: len(runs[i].Pairs) > 0,
			Sim:     make([][]graph.NodeID, 2),
			Edges:   []simulation.EdgeMatches{runs[i]},
		}})
	}
	q := pattern.New("star")
	hub := q.AddNode("hub", "A")
	l := &Lambda{}
	for qi, views := range perEdge {
		q.AddBoundedEdge(hub, q.AddNode(fmt.Sprintf("leaf%d", qi), "B"), bounds[qi])
		var refs []ViewEdgeRef
		for _, v := range views {
			refs = append(refs, ViewEdgeRef{View: v, Edge: 0})
		}
		l.PerEdge = append(l.PerEdge, refs)
	}
	return q, x, l
}

// refSeed is the pre-merge seeding of one query edge: append every
// in-bound pair of every run, then sort and deduplicate keeping the
// minimum distance.
func refSeed(x *view.Extensions, refs []ViewEdgeRef, b pattern.Bound) simulation.EdgeMatches {
	var em simulation.EdgeMatches
	for _, ref := range refs {
		se := extEdge(x, ref)
		for j, p := range se.Pairs {
			if b == pattern.Unbounded || int64(se.Dists[j]) <= int64(b) {
				em.Pairs = append(em.Pairs, p)
				em.Dists = append(em.Dists, se.Dists[j])
			}
		}
	}
	refNormalizeMatches(&em)
	return em
}

// TestSeedMergeMatchesNormalize: for random strictly ascending runs, k =
// 1…5 per query edge, with overlapping pairs, differing distances, and
// bounded and unbounded edges, the seeded sets equal the reference union
// at every worker count, and the short-circuit on an empty edge reports
// the same scan count.
func TestSeedMergeMatchesNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	bounds := []pattern.Bound{pattern.Unbounded, 1, 2, 3}
	merged, empty := 0, 0
	for trial := 0; trial < 400; trial++ {
		nRuns := 2 + rng.Intn(8)
		runs := make([]simulation.EdgeMatches, nRuns)
		for i := range runs {
			n := rng.Intn(40)
			if rng.Intn(10) == 0 {
				n = 0 // an empty extension edge set
			}
			runs[i] = randomRun(rng, 4+rng.Intn(10), n, 4)
		}
		nEdges := 1 + rng.Intn(4)
		perEdge := make([][]int, nEdges)
		eb := make([]pattern.Bound, nEdges)
		for qi := range perEdge {
			if qi > 0 && rng.Intn(4) == 0 {
				// Same λ and bound as an earlier edge: the seeds are shared.
				src := rng.Intn(qi)
				perEdge[qi], eb[qi] = perEdge[src], eb[src]
				continue
			}
			k := 1 + (trial+qi)%5
			for j := 0; j < k; j++ {
				perEdge[qi] = append(perEdge[qi], rng.Intn(nRuns))
			}
			eb[qi] = bounds[rng.Intn(len(bounds))]
		}
		q, x, l := seedFixture(runs, perEdge, eb)

		want := make([]simulation.EdgeMatches, nEdges)
		firstEmpty := -1
		for qi := range want {
			want[qi] = refSeed(x, l.PerEdge[qi], eb[qi])
			if firstEmpty < 0 && len(want[qi].Pairs) == 0 {
				firstEmpty = qi
			}
		}
		for _, w := range []int{1, 2, 4} {
			label := fmt.Sprintf("trial %d workers %d", trial, w)
			sets, ok, scans, err := buildInitial(context.Background(), q, x, l, w, new(Scratch))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if firstEmpty >= 0 {
				if ok || scans != firstEmpty+1 {
					t.Fatalf("%s: edge %d seeds empty, got ok=%v scans=%d", label, firstEmpty, ok, scans)
				}
				continue
			}
			if !ok || scans != nEdges {
				t.Fatalf("%s: ok=%v scans=%d, want true %d", label, ok, scans, nEdges)
			}
			for qi := range sets {
				got := simulation.EdgeMatches{Pairs: sets[qi].pairs, Dists: sets[qi].dists}
				if !reflect.DeepEqual(got, want[qi]) {
					t.Fatalf("%s edge %d (λ %v, bound %v):\n got  %v\n want %v", label, qi, l.PerEdge[qi], eb[qi], got, want[qi])
				}
			}
		}
		if firstEmpty >= 0 {
			empty++
		} else {
			merged++
		}
	}
	if merged < 100 || empty < 20 {
		t.Fatalf("weak coverage: %d merged trials, %d empty", merged, empty)
	}
}

// TestSeedAliasesSingleRun: a query edge whose λ is one run the bound
// filters nothing from reads that run in place, and the Result MatchJoin
// returns owns its storage — writing into it leaves the extension
// unchanged. A bound that filters the run gets its own buffer.
func TestSeedAliasesSingleRun(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	run := randomRun(rng, 30, 120, 3)
	for _, tc := range []struct {
		bound   pattern.Bound
		aliased bool
	}{
		{pattern.Unbounded, true},
		{3, true},
		{1, false},
	} {
		q, x, l := seedFixture([]simulation.EdgeMatches{run}, [][]int{{0}}, []pattern.Bound{tc.bound})
		orig := simulation.EdgeMatches{Pairs: slices.Clone(run.Pairs), Dists: slices.Clone(run.Dists)}

		sets, ok, _, err := buildInitial(context.Background(), q, x, l, 1, new(Scratch))
		if err != nil || !ok {
			t.Fatalf("bound %v: seeding failed: %v %v", tc.bound, ok, err)
		}
		if got := &sets[0].pairs[0] == &run.Pairs[0]; got != tc.aliased {
			t.Fatalf("bound %v: aliased = %v, want %v", tc.bound, got, tc.aliased)
		}

		for _, w := range []int{1, 2} {
			res, _, err := MatchJoin(context.Background(), q, x, l, w)
			if err != nil || !res.Matched {
				t.Fatalf("bound %v workers %d: %v %v", tc.bound, w, res, err)
			}
			want := refSeed(x, l.PerEdge[0], tc.bound)
			if !reflect.DeepEqual(res.Edges[0], want) {
				t.Fatalf("bound %v workers %d: result %v, want %v", tc.bound, w, res.Edges[0], want)
			}
			for i := range res.Edges[0].Pairs {
				res.Edges[0].Pairs[i] = simulation.Pair{Src: -1, Dst: -1}
				res.Edges[0].Dists[i] = -1
			}
			if !reflect.DeepEqual(x.Exts[0].Result.Edges[0], orig) {
				t.Fatalf("bound %v workers %d: writing the Result changed the extension", tc.bound, w)
			}
		}
	}
}
