package core

import (
	"context"
	"fmt"
	"sort"

	"graphviews/internal/pattern"
	"graphviews/internal/view"
)

// ViewEdgeRef addresses one edge of one view in a view.Set.
type ViewEdgeRef struct {
	View int // index into the view set
	Edge int // edge index within that view's pattern
}

// Lambda is the mapping λ from query edges to sets of view edges
// (Section III): MatchJoin unions the referenced extension match sets to
// seed each query edge's match set.
type Lambda struct {
	PerEdge [][]ViewEdgeRef
}

// buildLambda reverses view matches into λ over the chosen view indices.
func buildLambda(q *pattern.Pattern, vms []*ViewMatch, chosen []int) *Lambda {
	l := &Lambda{PerEdge: make([][]ViewEdgeRef, len(q.Edges))}
	for _, vi := range chosen {
		vm := vms[vi]
		if vm == nil {
			continue
		}
		for ei, covers := range vm.CoversPerEdge {
			for _, qi := range covers {
				l.PerEdge[qi] = append(l.PerEdge[qi], ViewEdgeRef{View: vi, Edge: ei})
			}
		}
	}
	return l
}

// validateForContainment rejects inputs the containment machinery cannot
// meaningfully process (notably edge-less patterns: with Ep = ∅ the
// condition Ep = ∪ M^Qs_V holds vacuously, but a node match set can never
// be reconstructed from view extensions).
func validateForContainment(q *pattern.Pattern, vs *view.Set) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if len(q.Edges) == 0 {
		return fmt.Errorf("core: pattern %q has no edges; single-node patterns cannot be answered using views", q.Name)
	}
	return vs.Validate()
}

// allViewMatches computes M^Qs_V for every view in the set.
func allViewMatches(q *pattern.Pattern, vs *view.Set) []*ViewMatch {
	vms, _ := ComputeViewMatches(context.Background(), q, vs, 1)
	return vms
}

// Contain decides Qs ⊑ V (Theorem 3 / Proposition 7: Ep = ∪ M^Qs_V) and,
// when it holds, returns the mapping λ over the full view set. It handles
// both plain and bounded patterns (Bcontain of Section VI-B is the same
// procedure with weighted view matches). The per-view match computations
// fan out over up to workers goroutines.
func Contain(ctx context.Context, q *pattern.Pattern, vs *view.Set, workers int) (*Lambda, bool, error) {
	if err := validateForContainment(q, vs); err != nil {
		return nil, false, err
	}
	vms, err := ComputeViewMatches(ctx, q, vs, workers)
	if err != nil {
		return nil, false, err
	}
	covered := make([]bool, len(q.Edges))
	for _, vm := range vms {
		for qi, c := range vm.Covered {
			if c {
				covered[qi] = true
			}
		}
	}
	for _, c := range covered {
		if !c {
			return nil, false, nil
		}
	}
	all := make([]int, vs.Card())
	for i := range all {
		all[i] = i
	}
	return buildLambda(q, vms, all), true, nil
}

// Minimal finds a minimal subset V' ⊆ V containing Qs (Theorem 5,
// algorithm of Fig. 5): greedy accumulation of view matches that
// contribute new edges, then elimination of views made redundant by later
// additions. Returns the chosen view indices (ascending), λ restricted to
// them, and whether Qs ⊑ V at all.
func Minimal(q *pattern.Pattern, vs *view.Set) ([]int, *Lambda, bool, error) {
	if err := validateForContainment(q, vs); err != nil {
		return nil, nil, false, err
	}
	nE := len(q.Edges)
	vms := make([]*ViewMatch, vs.Card())

	covered := make([]bool, nE)
	coveredCount := 0
	// M(e): which chosen views cover query edge e.
	coverers := make([][]int, nE)
	var chosen []int

	for i, d := range vs.Defs {
		vm := ComputeViewMatch(q, d)
		vms[i] = vm
		contributes := false
		for qi, c := range vm.Covered {
			if c && !covered[qi] {
				contributes = true
				break
			}
		}
		if !contributes {
			continue
		}
		chosen = append(chosen, i)
		for qi, c := range vm.Covered {
			if !c {
				continue
			}
			if !covered[qi] {
				covered[qi] = true
				coveredCount++
			}
			coverers[qi] = append(coverers[qi], i)
		}
		if coveredCount == nE {
			break
		}
	}
	if coveredCount != nE {
		return nil, nil, false, nil
	}

	// Elimination pass (lines 9–11 of Fig. 5): drop Vj when every edge it
	// covers is covered by another chosen view.
	kept := make(map[int]bool, len(chosen))
	for _, i := range chosen {
		kept[i] = true
	}
	for _, j := range chosen {
		redundant := true
		for qi := 0; qi < nE; qi++ {
			if !vms[j].Covered[qi] {
				continue
			}
			others := 0
			for _, c := range coverers[qi] {
				if c != j && kept[c] {
					others++
				}
			}
			if others == 0 {
				redundant = false
				break
			}
		}
		if redundant {
			kept[j] = false
		}
	}
	var final []int
	for _, i := range chosen {
		if kept[i] {
			final = append(final, i)
		}
	}
	return final, buildLambda(q, vms, final), true, nil
}

// Minimum approximates the NP-complete minimum containment problem MMCP
// (Theorem 6) with the greedy set-cover strategy of Section V-C: pick the
// view with the largest α(V) = |M^Qs_V \ Ec| / |Ep| until all query edges
// are covered; ties break toward the lowest view index (which reproduces
// the paper's Example 7). The result is within a log |Ep| factor of the
// optimum.
func Minimum(q *pattern.Pattern, vs *view.Set) ([]int, *Lambda, bool, error) {
	if err := validateForContainment(q, vs); err != nil {
		return nil, nil, false, err
	}
	nE := len(q.Edges)
	vms := allViewMatches(q, vs)

	covered := make([]bool, nE)
	coveredCount := 0
	used := make([]bool, vs.Card())
	var chosen []int

	for coveredCount < nE {
		best, bestGain := -1, 0
		for i, vm := range vms {
			if used[i] {
				continue
			}
			gain := 0
			for qi, c := range vm.Covered {
				if c && !covered[qi] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			return nil, nil, false, nil // nothing can cover the rest
		}
		used[best] = true
		chosen = append(chosen, best)
		for qi, c := range vms[best].Covered {
			if c && !covered[qi] {
				covered[qi] = true
				coveredCount++
			}
		}
	}
	sort.Ints(chosen)
	return chosen, buildLambda(q, vms, chosen), true, nil
}

// QueryContained decides classical query containment Qs1 ⊑ Qs2
// (Corollary 4): the single-view special case of Contain.
func QueryContained(q1, q2 *pattern.Pattern) (bool, error) {
	_, ok, err := Contain(context.Background(), q1, view.NewSet(view.Define("", q2)), 1)
	return ok, err
}
