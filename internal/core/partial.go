package core

// Maximally contained partial answering — the second §VIII future-work
// item ("develop efficient algorithms for computing maximally contained
// rewriting using views, when a pattern query is not contained in
// available views [25]").
//
// When Qs ⋢ V, no exact answer is computable from V(G) (Theorem 1). What
// *is* computable is, for the covered part of the query, a sound upper
// bound: for every covered edge e, a set S̃e ⊇ Se obtained by unioning the
// covering view extensions and running the MatchJoin fixpoint restricted
// to covered edges. The bound is "maximally contained" in the sense that
// the covered edge set is the maximal one (the union of all view
// matches), and the per-edge sets are the tightest derivable from V(G)'s
// per-edge information alone: uncovered edges contribute no pruning,
// because their match sets are unknown.
//
// Tests verify the two defining properties: (a) soundness — the true
// match set of every covered edge is a subset of the partial answer; and
// (b) consistency — when Qs ⊑ V after all, the partial answer degenerates
// to the exact Qs(G).

import (
	"context"

	"graphviews/internal/graph"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// PartialAnswer is the result of answering an uncontained query as far as
// the views allow.
type PartialAnswer struct {
	// Covered[i] reports whether query edge i is covered by some view.
	Covered []bool
	// Result holds upper-bound match sets for covered edges; uncovered
	// edges have empty sets (their contents are unknowable from V(G)).
	// Result.Matched is false only if some covered edge's bound is empty,
	// which proves Qs(G) = ∅.
	Result *simulation.Result
	// Exact is true when every edge is covered (Qs ⊑ V) — the Result is
	// then exactly Qs(G).
	Exact bool
}

// AnswerPartial computes the maximally contained partial answer of q over
// the extensions. It never accesses the data graph.
func AnswerPartial(q *pattern.Pattern, x *view.Extensions) (*PartialAnswer, error) {
	if err := validateForContainment(q, x.Set); err != nil {
		return nil, err
	}
	vms := allViewMatches(q, x.Set)
	covered := make([]bool, len(q.Edges))
	for _, vm := range vms {
		for qi, c := range vm.Covered {
			if c {
				covered[qi] = true
			}
		}
	}
	all := make([]int, x.Set.Card())
	for i := range all {
		all[i] = i
	}
	l := buildLambda(q, vms, all)

	exact := true
	for _, c := range covered {
		if !c {
			exact = false
			break
		}
	}
	if exact {
		res, _, _ := MatchJoin(context.Background(), q, x, l, 1) // Background: never cancelled
		return &PartialAnswer{Covered: covered, Result: res, Exact: true}, nil
	}

	// Build a reduced pattern over the covered edges only, then run the
	// ordinary fixpoint on it. Restricting to a sub-pattern can only
	// weaken the pruning, so the fixpoint on the reduced pattern is an
	// upper bound of the true match sets of those edges.
	sub := pattern.New(q.Name + "_covered")
	nodeMap := make([]int, len(q.Nodes))
	for i := range nodeMap {
		nodeMap[i] = -1
	}
	mapNode := func(u int) int {
		if nodeMap[u] < 0 {
			n := q.Nodes[u]
			nodeMap[u] = sub.AddNode(n.Name, n.Label, append([]pattern.Predicate(nil), n.Preds...)...)
		}
		return nodeMap[u]
	}
	subEdgeOf := make([]int, 0, len(q.Edges)) // sub edge -> query edge
	subLambda := &Lambda{}
	for qi, e := range q.Edges {
		if !covered[qi] {
			continue
		}
		sub.AddBoundedEdge(mapNode(e.From), mapNode(e.To), e.Bound)
		subEdgeOf = append(subEdgeOf, qi)
		subLambda.PerEdge = append(subLambda.PerEdge, l.PerEdge[qi])
	}

	subRes, _, _ := MatchJoin(context.Background(), sub, x, subLambda, 1) // Background: never cancelled

	// Project back onto the original pattern's edge indexing.
	res := &simulation.Result{
		Pattern: q,
		Matched: subRes.Matched,
		Sim:     make([][]graph.NodeID, len(q.Nodes)),
		Edges:   make([]simulation.EdgeMatches, len(q.Edges)),
	}
	if subRes.Matched {
		for si, qi := range subEdgeOf {
			res.Edges[qi] = subRes.Edges[si]
		}
		for u, su := range nodeMap {
			if su >= 0 {
				res.Sim[u] = subRes.Sim[su]
			}
		}
	}
	return &PartialAnswer{Covered: covered, Result: res, Exact: false}, nil
}
