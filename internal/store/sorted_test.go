package store

import (
	"context"
	"math/rand"
	"testing"

	"graphviews/internal/generator"
	"graphviews/internal/graph"
	"graphviews/internal/view"
)

// requireStrictlyAscending fails unless every edge match set of x is
// strictly ascending by (Src, Dst). MatchJoin seeds by merging these
// runs, and Has/Dist binary-search them, so the order is part of the
// extension contract, not a detail of one producer.
func requireStrictlyAscending(t *testing.T, stage string, x *view.Extensions) {
	t.Helper()
	if x.TotalEdges() == 0 {
		t.Fatalf("%s: every extension is empty", stage)
	}
	for vi, e := range x.Exts {
		for ei, em := range e.Result.Edges {
			if len(em.Dists) != len(em.Pairs) {
				t.Fatalf("%s: view %d edge %d: %d pairs, %d distances", stage, vi, ei, len(em.Pairs), len(em.Dists))
			}
			for i := 1; i < len(em.Pairs); i++ {
				a, b := em.Pairs[i-1], em.Pairs[i]
				if a.Src > b.Src || (a.Src == b.Src && a.Dst >= b.Dst) {
					t.Fatalf("%s: view %d edge %d: pair %d %v not above %v", stage, vi, ei, i, b, a)
				}
			}
		}
	}
}

// TestExtensionEdgeSetsStrictlyAscending pins the sortedness invariant
// the MatchJoin seeding merge relies on, on plain and bounded views,
// after Materialize, after delta propagation of insert and delete
// batches, and after a checkpoint restore through Open.
func TestExtensionEdgeSetsStrictlyAscending(t *testing.T) {
	g := generator.YouTubeLike(1500, 6000, 5)
	vs := generator.YouTubeViews()
	m, err := view.NewMaintained(context.Background(), g, vs, 2)
	if err != nil {
		t.Fatal(err)
	}
	requireStrictlyAscending(t, "materialize", m.X)

	rng := rand.New(rand.NewSource(5))
	n := g.NumNodes()
	refreshed := 0
	for round := 0; round < 6; round++ {
		prev := m.SnapshotExtensions()
		var batch []view.EdgeUpdate
		for i := 0; i < 40; i++ {
			u := graph.NodeID(rng.Intn(n))
			if out := g.Out(u); round%2 == 1 && len(out) > 0 {
				batch = append(batch, view.EdgeUpdate{From: u, To: out[rng.Intn(len(out))], Delete: true})
			} else {
				batch = append(batch, view.EdgeUpdate{From: u, To: graph.NodeID(rng.Intn(n))})
			}
		}
		if m.ApplyBatch(batch) == 0 {
			t.Fatalf("round %d: batch changed nothing", round)
		}
		requireStrictlyAscending(t, "delta propagation", m.X)
		for i := range prev.Exts {
			if m.X.Exts[i] != prev.Exts[i] {
				refreshed++
			}
		}
	}
	if refreshed == 0 {
		t.Fatal("no batch refreshed any extension")
	}

	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := m.SnapshotExtensions()
	if err := s.Checkpoint(graph.Freeze(g), x, m.Version()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.BaseExtensions(vs)
	if !ok {
		t.Fatal("checkpointed extensions did not bind to the view set")
	}
	requireStrictlyAscending(t, "checkpoint restore", got)
	requireSameExtensions(t, got, x)
}
