package experiments

// Exp-3: containment checking (Fig. 8(g)) and minimum-vs-minimal
// (Fig. 8(h)).

import (
	"context"
	"fmt"
	"math/rand"

	"graphviews/internal/core"
	"graphviews/internal/generator"
)

// containSizes are the pattern sizes of Fig. 8(g)/(h).
var containSizes = []sizeSpec{
	{6, 6}, {6, 12}, {7, 7}, {7, 14}, {8, 8}, {8, 16}, {9, 9}, {9, 18}, {10, 10}, {10, 20},
}

// Fig8g: contain() efficiency over DAG and cyclic patterns against the 22
// synthetic views. Reported in milliseconds, like the paper.
func Fig8g(cfg Config) *Figure {
	vs := generator.SyntheticViews(10, cfg.Seed)
	fig := &Figure{
		ID: "8g", Title: "Containment checking: QDAG vs QCyclic (synthetic views)",
		XAxis: "(|Vp|,|Ep|)", YAxis: "milliseconds",
		Series: []Series{{Name: "contain [QDAG]"}, {Name: "contain [QCyclic]"}},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	const reps = 20
	for _, sz := range containSizes {
		fig.XLabels = append(fig.XLabels, sz.label())
		var tDag, tCyc float64
		for r := 0; r < reps; r++ {
			dag := generator.RandomPattern(rng, sz.nv, sz.ne, 10, false)
			cyc := generator.RandomPattern(rng, sz.nv, sz.ne, 10, true)
			tDag += timeIt(func() {
				if _, _, err := core.Contain(context.Background(), dag, vs, 1); err != nil {
					panic(err)
				}
			})
			tCyc += timeIt(func() {
				if _, _, err := core.Contain(context.Background(), cyc, vs, 1); err != nil {
					panic(err)
				}
			})
		}
		fig.Series[0].Values = append(fig.Series[0].Values, 1000*tDag/reps)
		fig.Series[1].Values = append(fig.Series[1].Values, 1000*tCyc/reps)
	}
	return fig
}

// Fig8h: minimum vs minimal on contained cyclic-ish patterns:
// R1 = time(minimum)/time(minimal) and R2 = card(minimum)/card(minimal),
// both as percentages (Fig. 8(h) plots exactly these two ratios).
func Fig8h(cfg Config) *Figure {
	vs := generator.SyntheticViews(10, cfg.Seed)
	fig := &Figure{
		ID: "8h", Title: "minimum vs minimal (contained patterns)",
		XAxis: "(|Vp|,|Ep|)", YAxis: "percent",
		Series: []Series{{Name: "R1 = Tmin/Tmnl"}, {Name: "R2 = |Minimum|/|Minimal|"}},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 6))
	const reps = 20
	for _, sz := range containSizes {
		fig.XLabels = append(fig.XLabels, sz.label())
		var tMin, tMnl float64
		var cMin, cMnl int
		for r := 0; r < reps; r++ {
			q := generator.GlueQuery(rng, vs, sz.nv, sz.ne)
			var idxMnl, idxMin []int
			tMnl += timeIt(func() {
				var ok bool
				idxMnl, _, ok, _ = core.Minimal(q, vs)
				if !ok {
					panic("experiments: glued query not contained (minimal)")
				}
			})
			tMin += timeIt(func() {
				var ok bool
				idxMin, _, ok, _ = core.Minimum(q, vs)
				if !ok {
					panic("experiments: glued query not contained (minimum)")
				}
			})
			cMnl += len(idxMnl)
			cMin += len(idxMin)
		}
		fig.Series[0].Values = append(fig.Series[0].Values, 100*tMin/tMnl)
		fig.Series[1].Values = append(fig.Series[1].Values, 100*float64(cMin)/float64(cMnl))
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("averaged over %d glued queries per size against %d views", reps, vs.Card()))
	return fig
}
