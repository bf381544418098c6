// Command gvviews materializes a set of view definitions over a data
// graph and writes the extensions for later view-based query answering
// with gvmatch.
//
//	gvviews -graph g.graph -views v.patterns -o v.ext
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"graphviews/internal/graph"
	"graphviews/internal/pattern"
	"graphviews/internal/view"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gvviews: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		graphPath = flag.String("graph", "", "data graph file (required)")
		viewsPath = flag.String("views", "", "pattern DSL file with view definitions (required)")
		out       = flag.String("o", "", "output extensions file (default stdout)")
		frozen    = flag.Bool("frozen", false, "materialize against an immutable CSR snapshot (graph.Freeze)")
		shards    = flag.Int("shards", 1, "materialize against k hash partitions (graph.Shard); <2 = unsharded")
	)
	flag.Parse()
	if *graphPath == "" || *viewsPath == "" {
		fail("-graph and -views are required")
	}

	gf, err := os.Open(*graphPath)
	if err != nil {
		fail("%v", err)
	}
	g, err := graph.Read(gf)
	gf.Close()
	if err != nil {
		fail("%v", err)
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
	if err := vs.Validate(); err != nil {
		fail("%v", err)
	}

	var r graph.Reader = g
	if *frozen {
		r = graph.Freeze(g)
	}
	if *shards > 1 {
		r = graph.Shard(r, *shards)
	}
	x, _ := view.Materialize(context.Background(), r, vs, 1)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := view.WriteExtensions(w, x); err != nil {
		fail("%v", err)
	}
	for i, e := range x.Exts {
		fmt.Fprintf(os.Stderr, "gvviews: %-12s matched=%-5v pairs=%d\n",
			vs.Defs[i].Name, e.Result.Matched, e.Edges())
	}
	fmt.Fprintf(os.Stderr, "gvviews: |V(G)| = %d pairs = %.2f%% of |G|\n",
		x.TotalEdges(), 100*x.FractionOf(r))
}
