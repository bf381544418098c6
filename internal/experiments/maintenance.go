package experiments

// Maintenance experiment: Section I argues cached views are practical
// because "incremental methods are already in place to efficiently
// maintain cached pattern views (e.g., [15])". This runner quantifies
// that premise on the YouTube stand-in: per-update maintained cost
// (insertions with label pruning, deletions with seeded refinement)
// against rematerializing all views after every update.

import (
	"context"
	"fmt"
	"math/rand"

	"graphviews/internal/generator"
	"graphviews/internal/graph"
	"graphviews/internal/view"
)

// RunMaintenance measures the average per-update cost of maintained
// extensions vs full rematerialization over a stream of random edge
// insertions and deletions, for growing graph sizes.
func RunMaintenance(cfg Config) *Figure {
	vs := generator.YouTubeViews()
	fig := &Figure{
		ID:    "maint",
		Title: "Incremental view maintenance vs rematerialization (Youtube)",
		XAxis: "|V|", YAxis: "seconds per update",
		Series: []Series{{Name: "maintained"}, {Name: "rematerialize"}},
	}
	f := cfg.Scale.factor()
	rng := rand.New(rand.NewSource(cfg.Seed + 9))
	const updates = 40
	for _, n := range []int{400_000 / f, 800_000 / f, 1_600_000 / f} {
		m := 45 * n / 16 // the YouTube density, |E| ≈ 2.8|V|
		fig.XLabels = append(fig.XLabels, fmt.Sprintf("%d", n))
		g := generator.YouTubeLike(n, m, cfg.Seed)

		maintained, _ := view.NewMaintained(context.Background(), g.Clone(), vs, 1)
		shadow := g.Clone()

		// Pre-draw one update stream so both strategies process the
		// identical sequence.
		type upd struct {
			u, v graph.NodeID
			del  bool
		}
		stream := make([]upd, updates)
		for i := range stream {
			stream[i] = upd{
				u:   graph.NodeID(rng.Intn(n)),
				v:   graph.NodeID(rng.Intn(n)),
				del: i%2 == 1,
			}
			if stream[i].del {
				// Delete a real edge when possible.
				for tries := 0; tries < 5; tries++ {
					cand := graph.NodeID(rng.Intn(n))
					if out := shadow.Out(cand); len(out) > 0 {
						stream[i].u = cand
						stream[i].v = out[rng.Intn(len(out))]
						break
					}
				}
			}
			// Keep the shadow in sync so deletions stay realistic.
			if stream[i].del {
				shadow.RemoveEdge(stream[i].u, stream[i].v)
			} else {
				shadow.AddEdge(stream[i].u, stream[i].v)
			}
		}

		tInc := timeIt(func() {
			for _, s := range stream {
				if s.del {
					maintained.DeleteEdge(s.u, s.v)
				} else {
					maintained.InsertEdge(s.u, s.v)
				}
			}
		})

		g2 := g.Clone()
		tFull := timeIt(func() {
			for _, s := range stream {
				if s.del {
					g2.RemoveEdge(s.u, s.v)
				} else {
					g2.AddEdge(s.u, s.v)
				}
				view.Materialize(context.Background(), g2, vs, 1)
			}
		})

		if cfg.Verify {
			fresh, _ := view.Materialize(context.Background(), maintained.G, vs, 1)
			for i := range fresh.Exts {
				if !maintained.X.Exts[i].Result.Equal(fresh.Exts[i].Result) {
					panic("experiments: maintained extensions diverged")
				}
			}
		}
		fig.Series[0].Values = append(fig.Series[0].Values, tInc/updates)
		fig.Series[1].Values = append(fig.Series[1].Values, tFull/updates)
		fig.Notes = append(fig.Notes, fmt.Sprintf("|V|=%d: %d recomputes, %d delta propagations, %d fast-path skips over %d updates",
			n, maintained.Stats.Recomputes, maintained.Stats.DeltaProps, maintained.Stats.Skips, updates))
	}
	return fig
}
