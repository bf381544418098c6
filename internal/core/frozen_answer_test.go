package core

// Differential check for the frozen CSR backend at the answering layer:
// extensions materialized over graph.Freeze(g) must be identical to those
// over g, and Answer/MatchJoin — which never touch the graph — must
// therefore produce identical results and stats from either family.

import (
	"context"
	"math/rand"
	"testing"

	"graphviews/internal/graph"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

func TestAnswerFrozenBackendEquivalence(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := rand.New(rand.NewSource(97))
	tested := 0
	for trial := 0; trial < 300 && tested < 80; trial++ {
		vs := randomViews(rng, labels, trial%2 == 1)
		q := glueContainedQuery(rng, vs, rng.Intn(3))
		if q == nil {
			continue
		}
		g := randomDataGraph(rng, labels)
		fz := graph.Freeze(g)

		xMut, _ := view.Materialize(context.Background(), g, vs, 1)
		xFz, _ := view.Materialize(context.Background(), fz, vs, 1)
		for i := range xMut.Exts {
			if !xMut.Exts[i].Result.Equal(xFz.Exts[i].Result) {
				t.Fatalf("trial %d view %d: frozen extension differs", trial, i)
			}
		}

		for _, s := range []Strategy{UseAll, UseMinimal, UseMinimum} {
			ctx := context.Background()
			resMut, idxMut, stMut, errMut := Answer(ctx, q, xMut, s, 1)
			resFz, idxFz, stFz, errFz := Answer(ctx, q, xFz, s, 1)
			if (errMut == nil) != (errFz == nil) {
				t.Fatalf("trial %d strategy %v: err %v vs %v", trial, s, errMut, errFz)
			}
			if errMut != nil {
				continue
			}
			if !resMut.Equal(resFz) {
				t.Fatalf("trial %d strategy %v: answers differ across backends", trial, s)
			}
			if len(idxMut) != len(idxFz) {
				t.Fatalf("trial %d strategy %v: view choice differs", trial, s)
			}
			for i := range idxMut {
				if idxMut[i] != idxFz[i] {
					t.Fatalf("trial %d strategy %v: view choice differs", trial, s)
				}
			}
			if stMut != stFz {
				t.Fatalf("trial %d strategy %v: stats %+v vs %+v", trial, s, stMut, stFz)
			}
			// Cross-check against direct evaluation on the frozen backend.
			if want := simulation.Simulate(context.Background(), fz, q, 1); !resMut.Equal(want) {
				t.Fatalf("trial %d strategy %v: answer != direct frozen evaluation", trial, s)
			}
		}
		tested++
	}
	if tested < 40 {
		t.Fatalf("only %d usable trials", tested)
	}
}
