// Package experiments regenerates every figure of the paper's evaluation
// (Section VII, Fig. 8(a)–(l)). Each runner builds the figure's workload
// (dataset stand-in, view set, glued queries), measures the competing
// algorithms, and returns a Figure with one series per plotted line.
// DESIGN.md §5 maps every figure to its modules; EXPERIMENTS.md records
// measured-vs-paper shapes.
//
// The paper's graph sizes (0.3M–1M synthetic nodes, 548K–1.6M real-life
// nodes) are reachable with ScalePaper; the default ScaleSmall divides
// sizes by ~25 so the full suite runs in minutes on a laptop.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"graphviews/internal/graph"
	"graphviews/internal/view"
)

// Scale selects workload sizes.
type Scale int

// Scales, from test-sized to the paper's sizes.
const (
	ScaleTiny Scale = iota
	ScaleSmall
	ScaleMedium
	ScalePaper
)

// ParseScale maps a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "tiny":
		return ScaleTiny, nil
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "paper":
		return ScalePaper, nil
	}
	return 0, fmt.Errorf("experiments: unknown scale %q (tiny|small|medium|paper)", s)
}

// factor returns the divisor applied to the paper's sizes.
func (s Scale) factor() int {
	switch s {
	case ScaleTiny:
		return 400
	case ScaleSmall:
		return 25
	case ScaleMedium:
		return 8
	default:
		return 1
	}
}

// Config parameterizes a run.
type Config struct {
	Scale Scale
	Seed  int64
	// Verify cross-checks every view-based answer against direct
	// evaluation (used by tests; adds the cost of Match to each point).
	Verify bool
	// QueriesPerPoint averages each data point over this many glued
	// queries (default 3).
	QueriesPerPoint int
	// Workers bounds view-materialization parallelism (0 or 1 =
	// sequential, the paper's single-threaded setting; < 0 = GOMAXPROCS).
	Workers int
	// Frozen evaluates every read-only workload against an immutable CSR
	// snapshot (graph.Freeze) instead of the mutable adjacency-list
	// graph, A/B-ing the two Reader backends. Results are identical; the
	// maintenance experiment ignores the flag since it mutates the graph.
	Frozen bool
	// Shards splits every read-only workload into this many hash
	// partitions (graph.Shard) so candidate seeding runs shard-parallel;
	// values below 2 leave the backend unsharded. Composes with Frozen
	// (sharding a snapshot) and with Workers (the shard tasks ride the
	// same pool). Results are identical at any shard count; the
	// maintenance experiment ignores the flag since it mutates the graph.
	Shards int
}

func (c Config) queries() int {
	if c.QueriesPerPoint <= 0 {
		return 3
	}
	return c.QueriesPerPoint
}

func (c Config) workers() int {
	if c.Workers == 0 {
		return 1
	}
	return c.Workers
}

// input selects the graph backend the figure runners evaluate against:
// the mutable graph as generated, a frozen CSR snapshot of it, or a
// hash-partitioned sharding of either.
func (c Config) input(g *graph.Graph) graph.Reader {
	var r graph.Reader = g
	if c.Frozen {
		r = graph.Freeze(g)
	}
	if c.Shards > 1 {
		r = graph.Shard(r, c.Shards)
	}
	return r
}

// materialize evaluates the views through the configured worker pool.
func (c Config) materialize(g graph.Reader, vs *view.Set) *view.Extensions {
	x, _ := view.Materialize(context.Background(), g, vs, c.workers())
	return x
}

// Series is one plotted line.
type Series struct {
	Name   string
	Values []float64
}

// Figure is a regenerated evaluation figure.
type Figure struct {
	ID      string // "8a" .. "8l"
	Title   string
	XAxis   string
	YAxis   string
	XLabels []string
	Series  []Series
	Notes   []string
}

// Table renders the figure as an aligned text table (the per-series rows
// the paper plots).
func (f *Figure) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure %s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&sb, "%-24s", f.XAxis)
	for _, x := range f.XLabels {
		fmt.Fprintf(&sb, "%12s", x)
	}
	sb.WriteString("\n")
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "%-24s", s.Name)
		for _, v := range s.Values {
			fmt.Fprintf(&sb, "%12.4f", v)
		}
		sb.WriteString("\n")
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	fmt.Fprintf(&sb, "(y-axis: %s)\n", f.YAxis)
	return sb.String()
}

// CSV renders the figure in machine-readable form.
func (f *Figure) CSV() string {
	var sb strings.Builder
	sb.WriteString("series")
	for _, x := range f.XLabels {
		sb.WriteString("," + x)
	}
	sb.WriteString("\n")
	for _, s := range f.Series {
		sb.WriteString(s.Name)
		for _, v := range s.Values {
			fmt.Fprintf(&sb, ",%g", v)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// timeIt measures fn in seconds.
func timeIt(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

// All lists every figure id in paper order.
var All = []string{"8a", "8b", "8c", "8d", "8e", "8f", "8g", "8h", "8i", "8j", "8k", "8l"}

// Run dispatches a single figure.
func Run(id string, cfg Config) (*Figure, error) {
	switch strings.ToLower(id) {
	case "8a":
		return Fig8a(cfg), nil
	case "8b":
		return Fig8b(cfg), nil
	case "8c":
		return Fig8c(cfg), nil
	case "8d":
		return Fig8d(cfg), nil
	case "8e":
		return Fig8e(cfg), nil
	case "8f":
		return Fig8f(cfg), nil
	case "8g":
		return Fig8g(cfg), nil
	case "8h":
		return Fig8h(cfg), nil
	case "8i":
		return Fig8i(cfg), nil
	case "8j":
		return Fig8j(cfg), nil
	case "8k":
		return Fig8k(cfg), nil
	case "8l":
		return Fig8l(cfg), nil
	case "summary":
		return RunSummary(cfg), nil
	case "maint":
		return RunMaintenance(cfg), nil
	}
	return nil, fmt.Errorf("experiments: unknown figure %q", id)
}
