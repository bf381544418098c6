package experiments

// Exp-1 and Exp-2: graph pattern matching using views (Fig. 8(a)–(f)).
// Match is direct evaluation [16,21]; MatchJoin_mnl answers with a
// minimal view subset; MatchJoin_min with the greedy minimum subset;
// MatchJoin_nopt is the unranked ablation of Exp-2.

import (
	"context"
	"fmt"
	"math/rand"

	"graphviews/internal/core"
	"graphviews/internal/generator"
	"graphviews/internal/graph"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// sizeSpec is a query size (|Vp|, |Ep|).
type sizeSpec struct{ nv, ne int }

func (s sizeSpec) label() string { return fmt.Sprintf("(%d,%d)", s.nv, s.ne) }

// runVaryQs measures Match / MatchJoin_mnl / MatchJoin_min while the
// query size grows over one dataset (the shared engine of Fig. 8(a)-(c)).
func runVaryQs(cfg Config, id, title string, g graph.Reader, vs *view.Set, sizes []sizeSpec, bounds pattern.Bound) *Figure {
	if bounds > 1 {
		vs = generator.BoundedSet(vs, bounds)
	}
	x := cfg.materialize(g, vs)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	fig := &Figure{
		ID:    id,
		Title: title,
		XAxis: "|Qs|=(|Vp|,|Ep|)", YAxis: "seconds",
		Series: []Series{{Name: "Match"}, {Name: "MatchJoin_mnl"}, {Name: "MatchJoin_min"}},
	}
	if bounds > 1 {
		fig.XAxis = fmt.Sprintf("|Qb|=(|Vp|,|Ep|,%d)", bounds)
		fig.Series[0].Name = "BMatch"
		fig.Series[1].Name = "BMatchJoin_mnl"
		fig.Series[2].Name = "BMatchJoin_min"
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("|G|=(%d,%d), card(V)=%d, |V(G)|=%d pairs (%.1f%% of |G|)",
			g.NumNodes(), g.NumEdges(), vs.Card(), x.TotalEdges(), 100*x.FractionOf(g)))

	for _, sz := range sizes {
		lbl := sz.label()
		if bounds > 1 {
			lbl = fmt.Sprintf("(%d,%d,%d)", sz.nv, sz.ne, bounds)
		}
		fig.XLabels = append(fig.XLabels, lbl)
		var tMatch, tMnl, tMin float64
		for qi := 0; qi < cfg.queries(); qi++ {
			q := generator.GlueQuery(rng, vs, sz.nv, sz.ne)
			var direct, ansMnl, ansMin *simulation.Result
			tMatch += timeIt(func() { direct = simulation.Simulate(context.Background(), g, q, 1) })
			tMnl += timeIt(func() {
				idx, l, ok, err := core.Minimal(q, vs)
				if err != nil || !ok {
					panic(fmt.Sprintf("experiments: glued query not contained: %v", err))
				}
				_ = idx
				ansMnl, _, _ = core.MatchJoin(context.Background(), q, x, l, 1)
			})
			tMin += timeIt(func() {
				_, l, ok, err := core.Minimum(q, vs)
				if err != nil || !ok {
					panic(fmt.Sprintf("experiments: glued query not contained: %v", err))
				}
				ansMin, _, _ = core.MatchJoin(context.Background(), q, x, l, 1)
			})
			if cfg.Verify {
				if !ansMnl.Equal(direct) || !ansMin.Equal(direct) {
					panic("experiments: view-based answer diverged from direct evaluation")
				}
			}
		}
		n := float64(cfg.queries())
		fig.Series[0].Values = append(fig.Series[0].Values, tMatch/n)
		fig.Series[1].Values = append(fig.Series[1].Values, tMnl/n)
		fig.Series[2].Values = append(fig.Series[2].Values, tMin/n)
	}
	return fig
}

// plainSizes are the query sizes of Fig. 8(a) (Amazon).
var amazonSizes = []sizeSpec{{4, 4}, {4, 6}, {4, 8}, {6, 6}, {6, 9}, {6, 12}, {8, 8}, {8, 12}, {8, 16}}

// citationSizes are used by Fig. 8(b), (c), (j).
var citationSizes = []sizeSpec{{4, 8}, {5, 10}, {6, 12}, {7, 14}, {8, 16}}

// Fig8a: varying |Qs| on the Amazon stand-in.
func Fig8a(cfg Config) *Figure {
	f := cfg.Scale.factor()
	g := generator.AmazonLike(548_000/f, 1_780_000/f, cfg.Seed)
	return runVaryQs(cfg, "8a", "Varying |Qs| (Amazon)", cfg.input(g), generator.AmazonViews(), amazonSizes, 1)
}

// Fig8b: varying |Qs| on the Citation stand-in.
func Fig8b(cfg Config) *Figure {
	f := cfg.Scale.factor()
	g := generator.CitationLike(1_400_000/f, 3_000_000/f, cfg.Seed)
	return runVaryQs(cfg, "8b", "Varying |Qs| (Citation)", cfg.input(g), generator.CitationViews(), citationSizes, 1)
}

// Fig8c: varying |Qs| on the YouTube stand-in.
func Fig8c(cfg Config) *Figure {
	f := cfg.Scale.factor()
	g := generator.YouTubeLike(1_600_000/f, 4_500_000/f, cfg.Seed)
	return runVaryQs(cfg, "8c", "Varying |Qs| (Youtube)", cfg.input(g), generator.YouTubeViews(), citationSizes, 1)
}

// syntheticSweep returns the |V| sweep of Fig. 8(d),(e),(l): 0.3M–1M at
// paper scale, divided by the scale factor otherwise.
func syntheticSweep(s Scale) []int {
	f := s.factor()
	var out []int
	for v := 300_000; v <= 1_000_000; v += 100_000 {
		out = append(out, v/f)
	}
	return out
}

// Fig8d: varying |G| on synthetic graphs, fixed query (4,6).
func Fig8d(cfg Config) *Figure {
	vs := generator.SyntheticViews(10, cfg.Seed)
	fig := &Figure{
		ID: "8d", Title: "Varying |G| (synthetic)",
		XAxis: "|V| (|E|=2|V|)", YAxis: "seconds",
		Series: []Series{{Name: "Match"}, {Name: "MatchJoin_mnl"}, {Name: "MatchJoin_min"}},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	for _, n := range syntheticSweep(cfg.Scale) {
		fig.XLabels = append(fig.XLabels, fmt.Sprintf("%d", n))
		g := cfg.input(generator.Uniform(n, 2*n, 10, cfg.Seed+int64(n)))
		x := cfg.materialize(g, vs)
		var tMatch, tMnl, tMin float64
		for qi := 0; qi < cfg.queries(); qi++ {
			q := generator.GlueQuery(rng, vs, 4, 6)
			var direct, got *simulation.Result
			tMatch += timeIt(func() { direct = simulation.Simulate(context.Background(), g, q, 1) })
			tMnl += timeIt(func() {
				_, l, ok, _ := core.Minimal(q, vs)
				if !ok {
					panic("experiments: glued query not contained")
				}
				got, _, _ = core.MatchJoin(context.Background(), q, x, l, 1)
			})
			if cfg.Verify && !got.Equal(direct) {
				panic("experiments: divergence in Fig8d")
			}
			tMin += timeIt(func() {
				_, l, ok, _ := core.Minimum(q, vs)
				if !ok {
					panic("experiments: glued query not contained")
				}
				got, _, _ = core.MatchJoin(context.Background(), q, x, l, 1)
			})
		}
		n64 := float64(cfg.queries())
		fig.Series[0].Values = append(fig.Series[0].Values, tMatch/n64)
		fig.Series[1].Values = append(fig.Series[1].Values, tMnl/n64)
		fig.Series[2].Values = append(fig.Series[2].Values, tMin/n64)
	}
	return fig
}

// Fig8e: varying |G| and |Qs| together — MatchJoin_min for Q1..Q4 of
// sizes (4,8)..(7,14).
func Fig8e(cfg Config) *Figure {
	vs := generator.SyntheticViews(10, cfg.Seed)
	specs := []sizeSpec{{4, 8}, {5, 10}, {6, 12}, {7, 14}}
	fig := &Figure{
		ID: "8e", Title: "Varying |G| & |Qs| (synthetic)",
		XAxis: "|V| (|E|=2|V|)", YAxis: "seconds",
	}
	for i := range specs {
		fig.Series = append(fig.Series, Series{Name: fmt.Sprintf("MatchJoin_min [Q%d %s]", i+1, specs[i].label())})
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	queries := make([]*pattern.Pattern, len(specs))
	for i, s := range specs {
		queries[i] = generator.GlueQuery(rng, vs, s.nv, s.ne)
	}
	for _, n := range syntheticSweep(cfg.Scale) {
		fig.XLabels = append(fig.XLabels, fmt.Sprintf("%d", n))
		g := cfg.input(generator.Uniform(n, 2*n, 10, cfg.Seed+int64(n)))
		x := cfg.materialize(g, vs)
		for i, q := range queries {
			t := timeIt(func() {
				_, l, ok, _ := core.Minimum(q, vs)
				if !ok {
					panic("experiments: glued query not contained")
				}
				core.MatchJoin(context.Background(), q, x, l, 1)
			})
			fig.Series[i].Values = append(fig.Series[i].Values, t)
		}
	}
	return fig
}

// Fig8f: the Exp-2 ablation — the Fig. 2 fixpoint without any visiting
// strategy (MatchJoin_nopt) against the rank-ordered bottom-up strategy
// of Section III (MatchJoin_opt), over densifying graphs |E| = |V|^α,
// α ∈ [1, 1.25]. Both are scan-based so the measured gap isolates the
// revisit savings, which grow with density as the paper reports.
func Fig8f(cfg Config) *Figure {
	vs := generator.SyntheticViews(10, cfg.Seed)
	n := 200_000 / cfg.Scale.factor()
	fig := &Figure{
		ID: "8f", Title: "Varying α (synthetic densification)",
		XAxis: fmt.Sprintf("α (|V|=%d)", n), YAxis: "seconds",
		Series: []Series{{Name: "MatchJoin_nopt"}, {Name: "MatchJoin_opt"}},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 4))
	nQueries := cfg.queries() * 2 // points are cheap; average harder
	for _, alpha := range []float64{1.0, 1.05, 1.10, 1.15, 1.20, 1.25} {
		fig.XLabels = append(fig.XLabels, fmt.Sprintf("%.2f", alpha))
		g := cfg.input(generator.Densified(n, alpha, 10, cfg.Seed+int64(alpha*100)))
		x := cfg.materialize(g, vs)
		var tNopt, tOpt float64
		var scansNopt, scansOpt int
		for qi := 0; qi < nQueries; qi++ {
			q := generator.GlueQuery(rng, vs, 5, 8)
			_, l, ok, _ := core.Minimum(q, vs)
			if !ok {
				panic("experiments: glued query not contained")
			}
			var a, b *simulation.Result
			var sa, sb core.Stats
			tNopt += timeIt(func() { a, sa = core.MatchJoinNaive(q, x, l) })
			tOpt += timeIt(func() { b, sb = core.MatchJoinRanked(q, x, l) })
			scansNopt += sa.EdgeScans
			scansOpt += sb.EdgeScans
			if cfg.Verify && !a.Equal(b) {
				panic("experiments: nopt and optimized MatchJoin disagree")
			}
		}
		nq := float64(nQueries)
		fig.Series[0].Values = append(fig.Series[0].Values, tNopt/nq)
		fig.Series[1].Values = append(fig.Series[1].Values, tOpt/nq)
		fig.Notes = append(fig.Notes, fmt.Sprintf("α=%.2f: match-set scans nopt=%d opt=%d",
			alpha, scansNopt, scansOpt))
	}
	return fig
}
