package experiments

// Summary regenerates the quantitative claims the paper makes in the
// running text of Section VII rather than in a figure: how many views a
// query actually needs ("only 3 to 6 views are used to answer Qs" on
// YouTube), how large the materialized views are relative to the graph
// ("no more than 4% of the size of the Youtube graph"), and the view-set
// reduction achieved by minimum over minimal.

import (
	"context"
	"fmt"
	"math/rand"

	"graphviews/internal/core"
	"graphviews/internal/generator"
	"graphviews/internal/graph"
	"graphviews/internal/view"
)

// DatasetSummary aggregates the per-dataset claims.
type DatasetSummary struct {
	Name           string
	Nodes, Edges   int
	ViewCount      int
	ExtensionPairs int
	Fraction       float64 // |V(G)| / |G|
	AvgViewsUsed   float64 // by minimum containment
	MinViewsUsed   int
	MaxViewsUsed   int
	AvgMinimal     float64 // minimal subset size on the same queries
}

// Summarize computes a DatasetSummary over nQueries glued queries.
func Summarize(name string, g graph.Reader, vs *view.Set, seed int64, nQueries int) DatasetSummary {
	x, _ := view.Materialize(context.Background(), g, vs, 1)
	s := DatasetSummary{
		Name:           name,
		Nodes:          g.NumNodes(),
		Edges:          g.NumEdges(),
		ViewCount:      vs.Card(),
		ExtensionPairs: x.TotalEdges(),
		Fraction:       x.FractionOf(g),
		MinViewsUsed:   vs.Card() + 1,
	}
	rng := rand.New(rand.NewSource(seed))
	totMin, totMnl := 0, 0
	for i := 0; i < nQueries; i++ {
		q := generator.GlueQuery(rng, vs, 4, 6)
		mnm, _, ok, err := core.Minimum(q, vs)
		if err != nil || !ok {
			panic(fmt.Sprintf("experiments: glued query not contained: %v", err))
		}
		mnl, _, _, _ := core.Minimal(q, vs)
		totMin += len(mnm)
		totMnl += len(mnl)
		if len(mnm) < s.MinViewsUsed {
			s.MinViewsUsed = len(mnm)
		}
		if len(mnm) > s.MaxViewsUsed {
			s.MaxViewsUsed = len(mnm)
		}
	}
	s.AvgViewsUsed = float64(totMin) / float64(nQueries)
	s.AvgMinimal = float64(totMnl) / float64(nQueries)
	return s
}

// RunSummary builds the in-text claims table across all four datasets.
func RunSummary(cfg Config) *Figure {
	f := cfg.Scale.factor()
	nQ := 5 * cfg.queries()
	rows := []DatasetSummary{
		Summarize("amazon", cfg.input(generator.AmazonLike(548_000/f, 1_780_000/f, cfg.Seed)), generator.AmazonViews(), cfg.Seed+1, nQ),
		Summarize("citation", cfg.input(generator.CitationLike(1_400_000/f, 3_000_000/f, cfg.Seed)), generator.CitationViews(), cfg.Seed+2, nQ),
		Summarize("youtube", cfg.input(generator.YouTubeLike(1_600_000/f, 4_500_000/f, cfg.Seed)), generator.YouTubeViews(), cfg.Seed+3, nQ),
		Summarize("synthetic", cfg.input(generator.Uniform(500_000/f, 1_000_000/f, 10, cfg.Seed)), generator.SyntheticViews(10, cfg.Seed), cfg.Seed+4, nQ),
	}
	fig := &Figure{
		ID:    "summary",
		Title: "Section VII in-text claims: view usage and cache volume",
		XAxis: "dataset", YAxis: "see series names",
		Series: []Series{
			{Name: "|V(G)| pairs"},
			{Name: "|V(G)|/|G| (%)"},
			{Name: "avg views used (minimum)"},
			{Name: "min views used"},
			{Name: "max views used"},
			{Name: "avg views used (minimal)"},
		},
	}
	for _, r := range rows {
		fig.XLabels = append(fig.XLabels, r.Name)
		fig.Series[0].Values = append(fig.Series[0].Values, float64(r.ExtensionPairs))
		fig.Series[1].Values = append(fig.Series[1].Values, 100*r.Fraction)
		fig.Series[2].Values = append(fig.Series[2].Values, r.AvgViewsUsed)
		fig.Series[3].Values = append(fig.Series[3].Values, float64(r.MinViewsUsed))
		fig.Series[4].Values = append(fig.Series[4].Values, float64(r.MaxViewsUsed))
		fig.Series[5].Values = append(fig.Series[5].Values, r.AvgMinimal)
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s: |G|=(%d,%d), card(V)=%d",
			r.Name, r.Nodes, r.Edges, r.ViewCount))
	}
	return fig
}
