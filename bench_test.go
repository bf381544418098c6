package graphviews_test

// One benchmark per evaluation figure of the paper (Fig. 8(a)–(l)), plus
// micro-benchmarks for the individual algorithms. The figure benchmarks
// drive the same runners as cmd/gvbench at tiny scale; run
//
//	go test -bench=Fig -benchmem
//
// for the full sweep, or cmd/gvbench for the figure tables at larger
// scales.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	gv "graphviews"
	"graphviews/internal/core"
	"graphviews/internal/experiments"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

func benchFigure(b *testing.B, id string) {
	cfg := experiments.Config{Scale: experiments.ScaleTiny, Seed: 7, QueriesPerPoint: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Exp-1: pattern matching using views, real-life-like datasets.
func BenchmarkFig8aAmazonVaryQs(b *testing.B)   { benchFigure(b, "8a") }
func BenchmarkFig8bCitationVaryQs(b *testing.B) { benchFigure(b, "8b") }
func BenchmarkFig8cYoutubeVaryQs(b *testing.B)  { benchFigure(b, "8c") }

// Exp-1: scalability on synthetic graphs.
func BenchmarkFig8dSyntheticVaryG(b *testing.B)   { benchFigure(b, "8d") }
func BenchmarkFig8eSyntheticVaryGQs(b *testing.B) { benchFigure(b, "8e") }

// Exp-2: rank-ordering optimization ablation.
func BenchmarkFig8fDensification(b *testing.B) { benchFigure(b, "8f") }

// Exp-3: containment checking.
func BenchmarkFig8gContain(b *testing.B)          { benchFigure(b, "8g") }
func BenchmarkFig8hMinimumVsMinimal(b *testing.B) { benchFigure(b, "8h") }

// Exp-4: bounded pattern queries using views.
func BenchmarkFig8iAmazonBounded(b *testing.B)    { benchFigure(b, "8i") }
func BenchmarkFig8jCitationBounded(b *testing.B)  { benchFigure(b, "8j") }
func BenchmarkFig8kYoutubeVaryFe(b *testing.B)    { benchFigure(b, "8k") }
func BenchmarkFig8lSyntheticBounded(b *testing.B) { benchFigure(b, "8l") }

// --- micro-benchmarks -----------------------------------------------------

// microWorkload builds a mid-sized YouTube-like instance shared by the
// micro-benchmarks.
func microWorkload() (*gv.Graph, *gv.ViewSet, *view.Extensions, *gv.Pattern, *core.Lambda) {
	g := gv.GenerateYouTubeLike(20_000, 56_000, 1)
	vs := gv.YouTubeViews()
	x := gv.Materialize(g, vs)
	rng := rand.New(rand.NewSource(2))
	q := gv.GlueQuery(rng, vs, 5, 7)
	l, ok, err := core.Contain(context.Background(), q, vs, 1)
	if err != nil || !ok {
		panic("micro workload query not contained")
	}
	return g, vs, x, q, l
}

func BenchmarkMatchSimulation(b *testing.B) {
	g, _, _, q, _ := microWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simulation.Simulate(context.Background(), g, q, 1)
	}
}

func BenchmarkMatchBounded(b *testing.B) {
	g, vs, _, _, _ := microWorkload()
	bvs := gv.BoundedViews(vs, 2)
	rng := rand.New(rand.NewSource(3))
	q := gv.GlueQuery(rng, bvs, 4, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simulation.SimulateBounded(context.Background(), g, q, 1)
	}
}

func BenchmarkMaterializeViews(b *testing.B) {
	g, vs, _, _, _ := microWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gv.Materialize(g, vs)
	}
}

func BenchmarkContain(b *testing.B) {
	_, vs, _, q, _ := microWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := core.Contain(context.Background(), q, vs, 1); err != nil || !ok {
			b.Fatal("containment lost")
		}
	}
}

func BenchmarkMinimal(b *testing.B) {
	_, vs, _, q, _ := microWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Minimal(q, vs)
	}
}

func BenchmarkMinimum(b *testing.B) {
	_, vs, _, q, _ := microWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Minimum(q, vs)
	}
}

func BenchmarkMatchJoin(b *testing.B) {
	_, _, x, q, l := microWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MatchJoin(context.Background(), q, x, l, 1)
	}
}

func BenchmarkMatchJoinRanked(b *testing.B) {
	_, _, x, q, l := microWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MatchJoinRanked(q, x, l)
	}
}

func BenchmarkMatchJoinNaive(b *testing.B) {
	_, _, x, q, l := microWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MatchJoinNaive(q, x, l)
	}
}

// --- parallel-engine benchmarks -------------------------------------------

// workerSweep is the parallelism axis of the Engine benchmarks. The
// acceptance target is the 4-worker point: materialization there should
// run ≥1.5× faster than 1 worker on a ≥4-core machine.
var workerSweep = []int{1, 2, 4, 8}

// BenchmarkMaterializeParallel sweeps Engine.Materialize worker counts
// over the Fig. 8 tiny-scale materialization workloads: the three
// real-life-like datasets with their 12-view sets, plus a bounded
// YouTube set to exercise the parallel distance enumeration.
func BenchmarkMaterializeParallel(b *testing.B) {
	f := 400 // experiments.ScaleTiny divisor
	type workload struct {
		name string
		g    *gv.Graph
		vs   *gv.ViewSet
	}
	yt := gv.GenerateYouTubeLike(1_600_000/f, 4_500_000/f, 1)
	workloads := []workload{
		{"amazon", gv.GenerateAmazonLike(548_000/f, 1_780_000/f, 1), gv.AmazonViews()},
		{"citation", gv.GenerateCitationLike(1_400_000/f, 3_000_000/f, 1), gv.CitationViews()},
		{"youtube", yt, gv.YouTubeViews()},
		{"youtube-bounded", yt, gv.BoundedViews(gv.YouTubeViews(), 2)},
	}
	for _, wl := range workloads {
		for _, w := range workerSweep {
			b.Run(fmt.Sprintf("%s/workers=%d", wl.name, w), func(b *testing.B) {
				eng := gv.NewEngine(gv.WithParallelism(w))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Materialize(wl.g, wl.vs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAnswerParallel sweeps Engine.Answer worker counts over glued
// queries against pre-materialized YouTube-like extensions.
func BenchmarkAnswerParallel(b *testing.B) {
	_, _, x, q, _ := microWorkload()
	for _, w := range workerSweep {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng := gv.NewEngine(gv.WithParallelism(w))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := eng.Answer(q, x, gv.UseAll); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMatchJoinSCCParallel sweeps the SCC-parallel MatchJoin
// fixpoint worker counts on multi-SCC necklace patterns: k directed
// cycles chained by bridges, whose condensation waves give each worker an
// independent component cascade. The 1-worker point runs the same wave
// engine sequentially; compare against BenchmarkMatchJoin for the
// classic global cascade. Speedup is only observable on multi-core
// hosts (`make bench-scc` pins GOMAXPROCS=4 for CI).
func BenchmarkMatchJoinSCCParallel(b *testing.B) {
	for _, k := range []int{4, 8} {
		rng := rand.New(rand.NewSource(int64(100 + k)))
		q, vs := gv.NecklaceQuery(rng, k, 1)
		g := gv.NecklaceGraph(rng, q, 60_000, 340_000)
		l, ok, err := core.Contain(context.Background(), q, vs, 1)
		if err != nil || !ok {
			b.Fatalf("necklace workload not contained: %v %v", ok, err)
		}
		x := gv.Materialize(g, vs)
		for _, w := range workerSweep {
			b.Run(fmt.Sprintf("cycles=%d/workers=%d", k, w), func(b *testing.B) {
				eng := gv.NewEngine(gv.WithParallelism(w))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := eng.MatchJoin(q, x, l); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkIncrementalInsert(b *testing.B) {
	g := gv.GenerateYouTubeLike(5_000, 14_000, 4)
	m := gv.NewMaintained(g, gv.YouTubeViews())
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := gv.NodeID(rng.Intn(5000))
		v := gv.NodeID(rng.Intn(5000))
		if u != v {
			m.InsertEdge(u, v)
		}
	}
}
