package core

// The two scan-based MatchJoin variants used by the Exp-2 optimization
// ablation: MatchJoinRanked implements Fig. 2 with the Section III
// bottom-up (ascending edge rank) strategy; MatchJoinNaive implements
// Fig. 2 with blind full passes. Both compute exactly the same result as
// the production MatchJoin (cross-checked by tests); they differ only in
// how often match sets are rescanned.

import (
	"context"

	"slices"

	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// scanEdge applies the Fig. 2 lines 6–10 checks to every alive pair of
// edge qi: the pair (v',v) of e=(u',u) survives iff v' retains an alive
// source pair in every out-edge set of u' and v retains one in every
// out-edge set of u. Kills maintain srcCount. It reports whether any
// source's count dropped to zero (requiring neighbors to be rescanned).
func scanEdge(q *pattern.Pattern, sets []edgeSet, qi int, st *Stats) (killedAny, zeroed bool) {
	st.EdgeScans++
	es := &sets[qi]
	uSrc := q.Edges[qi].From
	uDst := q.Edges[qi].To
	for i := range es.pairs {
		if !es.alive.Get(i) {
			continue
		}
		v1, v2 := es.lsrc[i], es.ldst[i]
		ok := true
		for _, e1 := range q.OutEdges(uSrc) {
			if sets[e1].srcCount[v1] <= 0 {
				ok = false
				break
			}
		}
		if ok {
			for _, e2 := range q.OutEdges(uDst) {
				if sets[e2].srcCount[v2] <= 0 {
					ok = false
					break
				}
			}
		}
		if ok {
			continue
		}
		es.kill(int32(i))
		st.PairKills++
		killedAny = true
		es.srcCount[v1]--
		if es.srcCount[v1] == 0 {
			zeroed = true
		}
	}
	return killedAny, zeroed
}

// MatchJoinNaive is Fig. 2 with no visiting strategy ("MatchJoin_nopt"):
// it repeatedly sweeps every match set until a full pass makes no change.
func MatchJoinNaive(q *pattern.Pattern, x *view.Extensions, l *Lambda) (*simulation.Result, Stats) {
	var st Stats
	sc := new(Scratch)
	// The scan-based variants count Fig. 2 (re)scan passes only — the
	// Exp-2 ablation metric — so the seeding pass count is discarded.
	sets, ok, _, _ := buildInitial(context.Background(), q, x, l, 1, sc) // Background: never cancelled
	if !ok {
		return simulation.Empty(q), st
	}
	for qi := range sets {
		st.InitialPairs += len(sets[qi].pairs)
	}
	nu, toOrig := indexEdgeSets(sets, sc)
	for changed := true; changed; {
		changed = false
		for qi := range sets {
			killed, _ := scanEdge(q, sets, qi, &st)
			if killed {
				changed = true
			}
			if sets[qi].nAliv == 0 {
				return simulation.Empty(q), st
			}
		}
	}
	return finish(q, sets, nu, toOrig, sc), st
}

// MatchJoinRanked is Fig. 2 with the bottom-up strategy: edges are
// scanned in ascending rank order (rank of an edge = rank of its target
// node over the pattern's SCC DAG), and an edge is rescanned only when a
// scan elsewhere removed the last source pair of some node that the edge
// may depend on. For patterns whose relevant region is a DAG this keeps
// the number of scans near |Ep| (Lemma 2); cyclic patterns iterate within
// the SCCs until the fixpoint.
func MatchJoinRanked(q *pattern.Pattern, x *view.Extensions, l *Lambda) (*simulation.Result, Stats) {
	var st Stats
	sc := new(Scratch)
	sets, ok, _, _ := buildInitial(context.Background(), q, x, l, 1, sc) // Background: never cancelled
	if !ok {
		return simulation.Empty(q), st
	}
	for qi := range sets {
		st.InitialPairs += len(sets[qi].pairs)
	}
	nu, toOrig := indexEdgeSets(sets, sc)

	eRanks := q.EdgeRanks()
	order := make([]int, len(q.Edges))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return eRanks[a] - eRanks[b] })

	dirty := make([]bool, len(q.Edges))
	// queue holds dirty edges; it is re-sorted by rank on every drain
	// round so lower-rank edges always go first.
	queue := append([]int(nil), order...)
	for i := range dirty {
		dirty[i] = true
	}

	for len(queue) > 0 {
		slices.SortStableFunc(queue, func(a, b int) int { return eRanks[a] - eRanks[b] })
		next := queue
		queue = nil
		for _, qi := range next {
			if !dirty[qi] {
				continue
			}
			dirty[qi] = false
			_, zeroed := scanEdge(q, sets, qi, &st)
			if sets[qi].nAliv == 0 {
				return simulation.Empty(q), st
			}
			if !zeroed {
				continue
			}
			// A node match of the edge's source lost its last pair here:
			// sibling out-edges and in-edges of that pattern node must be
			// rechecked.
			uSrc := q.Edges[qi].From
			for _, e := range q.OutEdges(uSrc) {
				if e != qi && !dirty[e] {
					dirty[e] = true
					queue = append(queue, e)
				}
			}
			for _, e := range q.InEdges(uSrc) {
				if !dirty[e] {
					dirty[e] = true
					queue = append(queue, e)
				}
			}
		}
	}
	return finish(q, sets, nu, toOrig, sc), st
}
