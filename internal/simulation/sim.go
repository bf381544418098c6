package simulation

// Graph simulation engine (Section II-A; algorithms after Henzinger,
// Henzinger & Kopke [21] and Fan et al. [16]). Candidate sets are seeded
// from the graph's label index and the node predicates, then refined with
// per-(edge, node) support counters and a removal worklist, giving the
// O(|Qs|²+|Qs||G|+|G|²)-class behaviour the paper quotes for Match.
//
// The working state is dense: membership is one bitset row per pattern
// node (internal/bitset), support counters are one flat int32 array
// indexed [edge·n + node], and everything is carved from the query's
// Scratch arenas so pooled callers allocate nothing but the Result.

import (
	"context"

	"graphviews/internal/graph"
	"graphviews/internal/pattern"
)

// candidates seeds the match sets: nodes with the right label that satisfy
// the node's predicates. When requireOut is true, nodes whose pattern node
// has out-edges must themselves have out-edges (a cheap prune that is only
// valid for plain simulation, where every pattern edge maps to one graph
// edge). Each set is preallocated at the label partition's size — the
// upper bound on its population — so the filter loop never reallocates.
func candidates(g graph.Reader, p *pattern.Pattern, requireOut bool) [][]graph.NodeID {
	cands := make([][]graph.NodeID, len(p.Nodes))
	for u := range p.Nodes {
		cn := pattern.CompileNode(&p.Nodes[u], g)
		needOut := requireOut && len(p.OutEdges(u)) > 0
		cands[u] = candidateSet(g, &cn, needOut)
	}
	return cands
}

// candidateSet evaluates one compiled node condition over its label
// partition.
func candidateSet(g graph.Reader, cn *pattern.CompiledNode, needOut bool) []graph.NodeID {
	return filterCandidates(g, g.NodesWithLabel(cn.Label), cn, needOut)
}

// filterCandidates applies a compiled node condition to one slice of a
// label partition. It is the single filter both the global and the
// per-shard seeding paths share, so the two can never diverge.
func filterCandidates(g graph.Reader, labeled []graph.NodeID, cn *pattern.CompiledNode, needOut bool) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(labeled))
	if !cn.HasPreds() {
		// Label-only node condition: the partition itself is the
		// candidate set (modulo the out-degree prune).
		if !needOut {
			return append(out, labeled...)
		}
		for _, v := range labeled {
			if g.OutDegree(v) != 0 {
				out = append(out, v)
			}
		}
		return out
	}
	for _, v := range labeled {
		if needOut && g.OutDegree(v) == 0 {
			continue
		}
		if cn.Matches(g, v) {
			out = append(out, v)
		}
	}
	return out
}

// shardCandidateSet is candidateSet confined to one shard of a
// *graph.Sharded: it scans the shard-local label partition (no lock, no
// merged index) and yields that shard's slice of the candidate set,
// ascending. CandidateSeeds merges the per-shard slices back together.
func shardCandidateSet(g *graph.Sharded, si int, cn *pattern.CompiledNode, needOut bool) []graph.NodeID {
	return filterCandidates(g, g.ShardNodesWithLabel(si, cn.Label), cn, needOut)
}

// Simulate computes Qs(G) under graph simulation; bounded patterns are
// dispatched to the bounded engine (see SimulateBounded), whose match-set
// enumeration — the distance-index construction — fans out over up to
// workers goroutines, observing ctx between enumeration chunks. Plain
// patterns are unaffected by ctx and workers — their refinement is a
// sequential fixpoint — so results are identical at any worker count. A
// cancelled ctx may leave the result partial; callers must discard it
// when their own ctx reports cancellation (view.Materialize does).
//
// Direct evaluation (/match, the maintenance fallback) is the occasional
// path, so it runs on a fresh scratch rather than the pool: a pooled
// scratch would keep its working state live between calls and raise the
// heap's GC target.
func Simulate(ctx context.Context, g graph.Reader, p *pattern.Pattern, workers int) *Result {
	return simulateFrom(ctx, g, p, candidates(g, p, p.IsPlain()), workers, new(Scratch))
}

// simulateFrom dispatches on the pattern class: the plain fixpoint for
// plain patterns, the bounded fixpoint (with workers-wide match-set
// enumeration) otherwise.
func simulateFrom(ctx context.Context, g graph.Reader, p *pattern.Pattern, cands [][]graph.NodeID, workers int, sc *Scratch) *Result {
	if !p.IsPlain() {
		return simulateBoundedSeeded(ctx, g, p, cands, workers, sc)
	}
	return simulateSeeded(g, p, cands, sc)
}

// SimulateSeeded runs the plain-simulation refinement from the given
// per-node candidate sets (sorted, duplicate free). The candidates must be
// a superset of the true match sets; incremental view maintenance uses
// this to restart refinement from a previous result after a deletion.
func SimulateSeeded(g graph.Reader, p *pattern.Pattern, cands [][]graph.NodeID) *Result {
	return simulateSeeded(g, p, cands, new(Scratch))
}

// simulateSeeded is the plain fixpoint over scratch-backed dense state.
func simulateSeeded(g graph.Reader, p *pattern.Pattern, cands [][]graph.NodeID, sc *Scratch) *Result {
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

	// supp[ei·n + v]: for edge ei=(u,u'), the number of successors of v
	// that are currently in sim(u'). Only meaningful for v ∈ sim(u).
	supp := sc.counters(len(p.Edges) * n)
	work := sc.takeWork()

	// Phase 1: compute all supports against the full candidate sets.
	// Removals must not start before every counter is in place, or the
	// worklist decrements would double-count.
	for u := range p.Nodes {
		for _, ei := range p.OutEdges(u) {
			tgt := inSim.Row(p.Edges[ei].To)
			row := supp[ei*n : (ei+1)*n]
			for _, v := range cands[u] {
				var c int32
				for _, w := range g.Out(v) {
					if tgt.Get(int(w)) {
						c++
					}
				}
				row[v] = c
			}
		}
	}
	// Phase 2: seed the worklist with unsupported candidates.
	for u := range p.Nodes {
		outs := p.OutEdges(u)
		for _, v := range cands[u] {
			for _, ei := range outs {
				if supp[ei*n+int(v)] == 0 {
					inSim.Row(u).Clear(int(v))
					work = append(work, removal{u, v})
					break
				}
			}
		}
	}

	// Worklist: when v leaves sim(u), any x ∈ pre(v) in sim(w) for an edge
	// (w,u) loses one unit of support.
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ei := range p.InEdges(r.u) {
			src := p.Edges[ei].From
			srcRow := inSim.Row(src)
			row := supp[ei*n : (ei+1)*n]
			for _, x := range g.In(r.v) {
				if !srcRow.Get(int(x)) {
					continue
				}
				row[x]--
				if row[x] == 0 {
					srcRow.Clear(int(x))
					work = append(work, removal{src, x})
				}
			}
		}
	}
	sc.giveWork(work)

	// Every pattern node must retain a match.
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
