package graphviews_test

// Facade-level differential harness for the PR 4 dense kernels and
// scratch pools: one long-lived Engine answering many queries over the
// warmed scratch pools must return results byte-identical to the
// package-level sequential entry points (which run the same dense
// kernels with one worker) at workers 1/2/4/8, on plain, bounded
// and dual workloads — and identically on the mutable and frozen
// backends. Catches any state leaking between queries through the
// pooled arenas.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	gv "graphviews"
)

func TestEngineScratchPoolReuse(t *testing.T) {
	g := gv.GenerateYouTubeLike(3_000, 9_000, 21)
	vs := gv.YouTubeViews()
	bvs := gv.BoundedViews(vs, 2)
	fz := gv.Freeze(g)

	type workload struct {
		name string
		vs   *gv.ViewSet
	}
	workloads := []workload{{"plain", vs}, {"bounded", bvs}}

	for _, wl := range workloads {
		wantX := gv.Materialize(g, wl.vs)
		rng := rand.New(rand.NewSource(91))
		queries := make([]*gv.Pattern, 0, 6)
		for len(queries) < 6 {
			q := gv.GlueQuery(rng, wl.vs, 3+rng.Intn(3), 5+rng.Intn(3))
			if _, ok, err := gv.Contains(q, wl.vs); err == nil && ok {
				queries = append(queries, q)
			}
		}
		wants := make([]*gv.Result, len(queries))
		for i, q := range queries {
			res, _, err := gv.Answer(q, wantX, gv.UseAll)
			if err != nil {
				t.Fatalf("%s: sequential answer: %v", wl.name, err)
			}
			wants[i] = res
		}

		for _, w := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", wl.name, w), func(t *testing.T) {
				eng := gv.NewEngine(gv.WithParallelism(w))
				// Three rounds over one engine: rounds 2 and 3 run
				// entirely on recycled scratch arenas.
				for round := 0; round < 3; round++ {
					for _, r := range []gv.GraphReader{g, fz} {
						x, err := eng.Materialize(r, wl.vs)
						if err != nil {
							t.Fatal(err)
						}
						for i := range x.Exts {
							if !x.Exts[i].Result.Equal(wantX.Exts[i].Result) ||
								!reflect.DeepEqual(x.Exts[i].Result.Sim, wantX.Exts[i].Result.Sim) {
								t.Fatalf("round %d: extension %d differs from sequential", round, i)
							}
						}
						for i, q := range queries {
							res, _, _, err := eng.Answer(q, x, gv.UseAll)
							if err != nil {
								t.Fatal(err)
							}
							if !res.Equal(wants[i]) || !reflect.DeepEqual(res.Sim, wants[i].Sim) {
								t.Fatalf("round %d query %d: pooled answer differs from sequential", round, i)
							}
						}
					}
				}
			})
		}
	}

	// Dual pipeline through the same engine pools.
	wantDX := gv.MaterializeDual(g, vs)
	eng := gv.NewEngine(gv.WithParallelism(4))
	for round := 0; round < 2; round++ {
		x, err := eng.MaterializeDual(g, vs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x.Exts {
			if !x.Exts[i].Result.Equal(wantDX.Exts[i].Result) ||
				!reflect.DeepEqual(x.Exts[i].Result.Sim, wantDX.Exts[i].Result.Sim) {
				t.Fatalf("dual round %d: extension %d differs", round, i)
			}
		}
	}
}
