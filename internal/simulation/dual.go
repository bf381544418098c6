package simulation

// Dual simulation (Ma et al. [28]; Section VIII notes the paper's
// techniques extend to it). Dual simulation adds the backward condition:
// for (u,v) ∈ S and every pattern edge (u',u) there must be a graph edge
// (v',v) with (u',v') ∈ S. The engine mirrors Simulate with support
// counters in both directions, over the same dense bitset/flat-counter
// working state.

import (
	"context"

	"graphviews/internal/graph"
	"graphviews/internal/pattern"
)

// SimulateDual computes the maximum dual simulation of p in g and derives
// per-edge match sets exactly as Simulate does. The pattern must be plain.
// The dual refinement is a sequential fixpoint, so, as for plain
// Simulate, ctx and workers leave the result unchanged; like Simulate it
// runs on a fresh scratch.
func SimulateDual(ctx context.Context, g graph.Reader, p *pattern.Pattern, workers int) *Result {
	return simulateDualSeeded(g, p, candidates(g, p, false), new(Scratch))
}

// simulateDualSeeded runs the dual fixpoint from the given candidate
// sets (sorted supersets of the true match sets, computed without the
// out-degree prune); cands is read, never written.
func simulateDualSeeded(g graph.Reader, p *pattern.Pattern, cands [][]graph.NodeID, sc *Scratch) *Result {
	n := g.NumNodes()
	for u := range cands {
		if len(cands[u]) == 0 {
			return emptyResult(p)
		}
	}
	inSim := sc.matrix(len(p.Nodes), n)
	for u := range cands {
		row := inSim.Row(u)
		for _, v := range cands[u] {
			row.Set(int(v))
		}
	}

	// suppFwd[ei·n + v]: |post(v) ∩ sim(To)| for v ∈ sim(From).
	// suppBwd[ei·n + v]: |pre(v) ∩ sim(From)| for v ∈ sim(To).
	suppFwd := sc.counters(len(p.Edges) * n)
	suppBwd := sc.counters(len(p.Edges) * n)

	work := sc.takeWork()
	remove := func(u int, v graph.NodeID) {
		row := inSim.Row(u)
		if row.TestAndClear(int(v)) {
			work = append(work, removal{u, v})
		}
	}

	// Phase 1: compute every counter against the full candidate sets
	// before any removal, so worklist decrements stay consistent.
	for u := range p.Nodes {
		for _, v := range cands[u] {
			for _, ei := range p.OutEdges(u) {
				tgt := inSim.Row(p.Edges[ei].To)
				var c int32
				for _, w := range g.Out(v) {
					if tgt.Get(int(w)) {
						c++
					}
				}
				suppFwd[ei*n+int(v)] = c
			}
			for _, ei := range p.InEdges(u) {
				src := inSim.Row(p.Edges[ei].From)
				var c int32
				for _, w := range g.In(v) {
					if src.Get(int(w)) {
						c++
					}
				}
				suppBwd[ei*n+int(v)] = c
			}
		}
	}
	// Phase 2: seed removals.
	for u := range p.Nodes {
		for _, v := range cands[u] {
			dead := false
			for _, ei := range p.OutEdges(u) {
				if suppFwd[ei*n+int(v)] == 0 {
					dead = true
					break
				}
			}
			if !dead {
				for _, ei := range p.InEdges(u) {
					if suppBwd[ei*n+int(v)] == 0 {
						dead = true
						break
					}
				}
			}
			if dead {
				remove(u, v)
			}
		}
	}

	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		// v left sim(u): predecessors matching sources of in-edges lose
		// forward support; successors matching targets of out-edges lose
		// backward support.
		for _, ei := range p.InEdges(r.u) {
			src := p.Edges[ei].From
			srcRow := inSim.Row(src)
			row := suppFwd[ei*n : (ei+1)*n]
			for _, x := range g.In(r.v) {
				if srcRow.Get(int(x)) {
					row[x]--
					if row[x] == 0 {
						remove(src, x)
					}
				}
			}
		}
		for _, ei := range p.OutEdges(r.u) {
			tgt := p.Edges[ei].To
			tgtRow := inSim.Row(tgt)
			row := suppBwd[ei*n : (ei+1)*n]
			for _, x := range g.Out(r.v) {
				if tgtRow.Get(int(x)) {
					row[x]--
					if row[x] == 0 {
						remove(tgt, x)
					}
				}
			}
		}
	}
	sc.giveWork(work)

	sim := simToSorted(inSim)
	for u := range sim {
		if len(sim[u]) == 0 {
			return emptyResult(p)
		}
	}
	res := &Result{Pattern: p, Matched: true, Sim: sim, Edges: make([]EdgeMatches, len(p.Edges))}
	for ei, e := range p.Edges {
		em := &res.Edges[ei]
		sc.assembleEdge(g, sim[e.From], inSim.Row(e.To), em)
		em.normalize()
	}
	return res
}
