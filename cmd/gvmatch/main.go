// Command gvmatch evaluates a pattern query over a data graph — directly
// (Match/BMatch) or using materialized views (MatchJoin), which requires
// only the view definitions and their cached extensions, not the graph.
//
// Direct evaluation:
//
//	gvmatch -graph g.graph -query q.pattern [-engine sim|dual|strong]
//
// View-based evaluation (no -graph needed):
//
//	gvmatch -query q.pattern -views v.patterns -extensions v.ext -strategy minimum
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"graphviews/internal/core"
	"graphviews/internal/graph"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gvmatch: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		graphPath = flag.String("graph", "", "data graph file (direct evaluation)")
		queryPath = flag.String("query", "", "pattern DSL file with the query (required)")
		viewsPath = flag.String("views", "", "pattern DSL file with view definitions")
		extPath   = flag.String("extensions", "", "materialized extensions file (from gvviews)")
		engine    = flag.String("engine", "sim", "sim | dual | strong (direct evaluation)")
		frozen    = flag.Bool("frozen", false, "freeze the graph into an immutable CSR snapshot before direct evaluation")
		shards    = flag.Int("shards", 1, "split the graph into k hash partitions before direct evaluation; <2 = unsharded")
		strategy  = flag.String("strategy", "minimal", "all | minimal | minimum (view-based)")
		verbose   = flag.Bool("v", false, "print full match sets, not just sizes")
	)
	flag.Parse()
	if *queryPath == "" {
		fail("-query is required")
	}
	qsrc, err := os.ReadFile(*queryPath)
	if err != nil {
		fail("%v", err)
	}
	q, err := pattern.Parse(string(qsrc))
	if err != nil {
		fail("%v", err)
	}

	var res *simulation.Result
	switch {
	case *extPath != "":
		if *viewsPath == "" {
			fail("-extensions requires -views")
		}
		vsrc, err := os.ReadFile(*viewsPath)
		if err != nil {
			fail("%v", err)
		}
		ps, err := pattern.ParseAll(string(vsrc))
		if err != nil {
			fail("%v", err)
		}
		defs := make([]*view.Definition, len(ps))
		for i, p := range ps {
			defs[i] = view.Define("", p)
		}
		vs := view.NewSet(defs...)
		ef, err := os.Open(*extPath)
		if err != nil {
			fail("%v", err)
		}
		x, err := view.ReadExtensions(ef, vs)
		ef.Close()
		if err != nil {
			fail("%v", err)
		}
		var strat core.Strategy
		switch *strategy {
		case "all":
			strat = core.UseAll
		case "minimal":
			strat = core.UseMinimal
		case "minimum":
			strat = core.UseMinimum
		default:
			fail("unknown strategy %q", *strategy)
		}
		var used []int
		res, used, _, err = core.Answer(context.Background(), q, x, strat, 1)
		if err != nil {
			fail("%v", err)
		}
		names := make([]string, len(used))
		for i, u := range used {
			names[i] = vs.Defs[u].Name
		}
		fmt.Fprintf(os.Stderr, "gvmatch: answered from views %v without the data graph\n", names)
	case *graphPath != "":
		gf, err := os.Open(*graphPath)
		if err != nil {
			fail("%v", err)
		}
		g, err := graph.Read(gf)
		gf.Close()
		if err != nil {
			fail("%v", err)
		}
		var r graph.Reader = g
		if *frozen {
			r = graph.Freeze(g)
		}
		if *shards > 1 {
			r = graph.Shard(r, *shards)
		}
		switch *engine {
		case "sim":
			res = simulation.Simulate(context.Background(), r, q, 1)
		case "dual":
			res = simulation.SimulateDual(context.Background(), r, q, 1)
		case "strong":
			res = simulation.SimulateStrong(r, q)
		default:
			fail("unknown engine %q", *engine)
		}
	default:
		fail("either -graph (direct) or -views/-extensions (view-based) is required")
	}

	if !res.Matched {
		fmt.Printf("%s(G) = (empty)\n", q.Name)
		return
	}
	fmt.Printf("%s(G): |result| = %d edge matches\n", q.Name, res.Size())
	for i, e := range q.Edges {
		fmt.Printf("  (%s -> %s): %d matches\n",
			q.Nodes[e.From].Name, q.Nodes[e.To].Name, res.Edges[i].Len())
		if *verbose {
			for j, pr := range res.Edges[i].Pairs {
				fmt.Printf("    (%d, %d) dist=%d\n", pr.Src, pr.Dst, res.Edges[i].Dists[j])
			}
		}
	}
}
