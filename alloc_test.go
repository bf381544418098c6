package graphviews_test

// Allocation regression bounds for the steady-state (pooled) answer
// pipeline. The PR 4 scratch arenas make repeated Engine calls on a
// warmed pool allocate only the Result and a bounded amount of phase
// bookkeeping — the pre-PR engines allocated O(|V|·|Q|) working state
// (membership rows, support maps, CSR indexes) per call, thousands of
// objects per query. These tests pin the steady state so a regression
// that reintroduces per-call working-state allocation fails loudly.
//
// The bounds are deliberately loose (≥2× headroom over the measured
// values documented in README.md §Performance, which `make bench`
// reproduces with -benchmem) — they exist to catch
// order-of-magnitude regressions, not to freeze exact counts. Skipped
// under -race: the race runtime changes allocation behavior.

import (
	"math/rand"
	"runtime"
	"testing"

	gv "graphviews"
)

// allocWorkload builds a mid-sized frozen instance with a warmed engine:
// pool steady state is reached by running each phase a few times first.
func allocWorkload(t *testing.T) (*gv.Engine, *gv.Frozen, *gv.ViewSet, *gv.Pattern, *gv.Extensions) {
	t.Helper()
	g := gv.GenerateYouTubeLike(8_000, 22_000, 3)
	vs := gv.YouTubeViews()
	fz := gv.Freeze(g)
	rng := rand.New(rand.NewSource(11))
	q := gv.GlueQuery(rng, vs, 5, 7)
	eng := gv.NewEngine(gv.WithParallelism(1))
	var x *gv.Extensions
	for i := 0; i < 3; i++ {
		var err error
		x, err = eng.Materialize(fz, vs)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := eng.Answer(q, x, gv.UseAll); err != nil {
			t.Fatal(err)
		}
	}
	return eng, fz, vs, q, x
}

// TestSteadyStateAnswerAllocs bounds allocations of Engine.Answer on a
// warmed scratch pool (measured ~294 allocs/op: containment working
// state plus the Result; the pre-PR engine sat around 4.4k for MatchJoin
// alone).
func TestSteadyStateAnswerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	eng, _, _, q, x := allocWorkload(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, _, err := eng.Answer(q, x, gv.UseAll); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Engine.Answer steady state: %.1f allocs/op", allocs)
	const bound = 600
	if allocs > bound {
		t.Fatalf("Engine.Answer steady state allocates %.1f objects/op, bound %d", allocs, bound)
	}
}

// TestSteadyStateMaterializeAllocs bounds allocations of
// Engine.Materialize on a warmed pool (the Result extensions dominate;
// fixpoint working state comes from the arenas).
func TestSteadyStateMaterializeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	eng, fz, vs, _, _ := allocWorkload(t)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.Materialize(fz, vs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Engine.Materialize steady state: %.1f allocs/op", allocs)
	const bound = 800
	if allocs > bound {
		t.Fatalf("Engine.Materialize steady state allocates %.1f objects/op, bound %d", allocs, bound)
	}
}

// TestSteadyStateMatchJoinAllocs bounds the MatchJoin phase alone — the
// paper's core operator and the tightest loop of the serving story.
func TestSteadyStateMatchJoinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	eng, _, vs, q, x := allocWorkload(t)
	l, ok, err := eng.Contains(q, vs)
	if err != nil || !ok {
		t.Fatalf("workload query not contained: %v %v", ok, err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := eng.MatchJoin(q, x, l); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := eng.MatchJoin(q, x, l); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Engine.MatchJoin steady state: %.1f allocs/op", allocs)
	const bound = 150
	if allocs > bound {
		t.Fatalf("Engine.MatchJoin steady state allocates %.1f objects/op, bound %d", allocs, bound)
	}
}

// TestSteadyStateMatchJoinAllocsParallel is the MatchJoin bound at the
// worker count gvserve runs by default (more than one): the seeding
// merges fan out and the fixpoint runs by SCC waves, yet every pair
// buffer is still carved from the scratch arenas before the fan-out, so
// only the Result and the pool's goroutine bookkeeping reach the heap.
func TestSteadyStateMatchJoinAllocsParallel(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	_, _, vs, q, x := allocWorkload(t)
	eng := gv.NewEngine(gv.WithParallelism(2))
	l, ok, err := eng.Contains(q, vs)
	if err != nil || !ok {
		t.Fatalf("workload query not contained: %v %v", ok, err)
	}
	run := func() {
		if _, _, err := eng.MatchJoin(q, x, l); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(20, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("Engine.MatchJoin steady state at 2 workers: %.1f allocs/op, %.0f B/op", allocs, bytes)
	const allocBound, byteBound = 250, 100_000
	if allocs > allocBound {
		t.Fatalf("Engine.MatchJoin at 2 workers allocates %.1f objects/op, bound %d", allocs, allocBound)
	}
	if bytes > byteBound {
		t.Fatalf("Engine.MatchJoin at 2 workers allocates %.0f B/op, bound %d", bytes, byteBound)
	}
}
