package experiments

// Exp-4: bounded pattern queries using views (Fig. 8(i)–(l)).

import (
	"context"
	"fmt"
	"math/rand"

	"graphviews/internal/core"
	"graphviews/internal/generator"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
)

// Fig8i: varying |Qb| on the Amazon stand-in, fe(e)=2.
func Fig8i(cfg Config) *Figure {
	f := cfg.Scale.factor()
	g := generator.AmazonLike(548_000/f, 1_780_000/f, cfg.Seed)
	return runVaryQs(cfg, "8i", "Varying |Qb| (Amazon, fe=2)", cfg.input(g), generator.AmazonViews(), amazonSizes, 2)
}

// Fig8j: varying |Qb| on the Citation stand-in, fe(e)=3.
func Fig8j(cfg Config) *Figure {
	f := cfg.Scale.factor()
	g := generator.CitationLike(1_400_000/f, 3_000_000/f, cfg.Seed)
	return runVaryQs(cfg, "8j", "Varying |Qb| (Citation, fe=3)", cfg.input(g), generator.CitationViews(), citationSizes, 3)
}

// Fig8k: varying fe(e) from 2 to 6 on the YouTube stand-in, query (4,8).
func Fig8k(cfg Config) *Figure {
	f := cfg.Scale.factor()
	g := cfg.input(generator.YouTubeLike(1_600_000/f, 4_500_000/f, cfg.Seed))
	baseViews := generator.YouTubeViews()
	fig := &Figure{
		ID: "8k", Title: "Varying fe(e) (Youtube, |Qb|=(4,8))",
		XAxis: "fe(e)", YAxis: "seconds",
		Series: []Series{{Name: "BMatch"}, {Name: "BMatchJoin_mnl"}, {Name: "BMatchJoin_min"}},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	for _, fe := range []pattern.Bound{2, 3, 4, 5, 6} {
		fig.XLabels = append(fig.XLabels, fmt.Sprintf("%d", fe))
		vs := generator.BoundedSet(baseViews, fe)
		x := cfg.materialize(g, vs)
		var tMatch, tMnl, tMin float64
		for qi := 0; qi < cfg.queries(); qi++ {
			q := generator.GlueQuery(rng, vs, 4, 8)
			var direct, got *simulation.Result
			tMatch += timeIt(func() { direct = simulation.SimulateBounded(context.Background(), g, q, 1) })
			tMnl += timeIt(func() {
				_, l, ok, _ := core.BMinimal(q, vs)
				if !ok {
					panic("experiments: bounded glued query not contained")
				}
				got, _ = core.BMatchJoin(q, x, l)
			})
			if cfg.Verify && !got.Equal(direct) {
				panic("experiments: BMatchJoin diverged in Fig8k")
			}
			tMin += timeIt(func() {
				_, l, ok, _ := core.BMinimum(q, vs)
				if !ok {
					panic("experiments: bounded glued query not contained")
				}
				got, _ = core.BMatchJoin(q, x, l)
			})
		}
		n := float64(cfg.queries())
		fig.Series[0].Values = append(fig.Series[0].Values, tMatch/n)
		fig.Series[1].Values = append(fig.Series[1].Values, tMnl/n)
		fig.Series[2].Values = append(fig.Series[2].Values, tMin/n)
	}
	return fig
}

// Fig8l: varying |G| on synthetic graphs with bounded queries, fe(e)=3,
// query (4,6).
func Fig8l(cfg Config) *Figure {
	vs := generator.BoundedSet(generator.SyntheticViews(10, cfg.Seed), 3)
	fig := &Figure{
		ID: "8l", Title: "Varying |G| (synthetic, bounded fe=3)",
		XAxis: "|V| (|E|=2|V|)", YAxis: "seconds",
		Series: []Series{{Name: "BMatch"}, {Name: "BMatchJoin_mnl"}, {Name: "BMatchJoin_min"}},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 8))
	for _, n := range syntheticSweep(cfg.Scale) {
		fig.XLabels = append(fig.XLabels, fmt.Sprintf("%d", n))
		g := cfg.input(generator.Uniform(n, 2*n, 10, cfg.Seed+int64(n)))
		x := cfg.materialize(g, vs)
		var tMatch, tMnl, tMin float64
		for qi := 0; qi < cfg.queries(); qi++ {
			q := generator.GlueQuery(rng, vs, 4, 6)
			var direct, got *simulation.Result
			tMatch += timeIt(func() { direct = simulation.SimulateBounded(context.Background(), g, q, 1) })
			tMnl += timeIt(func() {
				_, l, ok, _ := core.BMinimal(q, vs)
				if !ok {
					panic("experiments: bounded glued query not contained")
				}
				got, _ = core.BMatchJoin(q, x, l)
			})
			if cfg.Verify && !got.Equal(direct) {
				panic("experiments: BMatchJoin diverged in Fig8l")
			}
			tMin += timeIt(func() {
				_, l, ok, _ := core.BMinimum(q, vs)
				if !ok {
					panic("experiments: bounded glued query not contained")
				}
				got, _ = core.BMatchJoin(q, x, l)
			})
		}
		nq := float64(cfg.queries())
		fig.Series[0].Values = append(fig.Series[0].Values, tMatch/nq)
		fig.Series[1].Values = append(fig.Series[1].Values, tMnl/nq)
		fig.Series[2].Values = append(fig.Series[2].Values, tMin/nq)
	}
	return fig
}
