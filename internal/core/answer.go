package core

// End-to-end query answering using views: the "if Qs ⊑ V then evaluate
// MatchJoin over V(G)" pipeline of Theorem 1, with the view-selection
// strategies of Section IV.

import (
	"context"
	"fmt"

	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// Strategy selects which views feed MatchJoin.
type Strategy int

const (
	// UseAll answers with every view in the set (plain containment).
	UseAll Strategy = iota
	// UseMinimal answers with a minimal containing subset (Theorem 5).
	UseMinimal
	// UseMinimum answers with the greedy approximation of the minimum
	// containing subset (Theorem 6).
	UseMinimum
)

// ErrNotContained is reported when Qs ⋢ V: the query cannot be answered
// using the views (Theorem 1).
var ErrNotContained = fmt.Errorf("core: query is not contained in the views")

// Answer computes Q(G) from materialized extensions only. It returns
// ErrNotContained when containment fails. The returned indices are the
// views actually used. The containment check's per-view matches (UseAll
// strategy), MatchJoin's per-edge seeding and the per-SCC MatchJoin
// fixpoint waves all fan out over up to workers goroutines, and ctx is
// honored at every phase boundary. The greedy Minimal/Minimum selections
// are order-dependent by construction and stay sequential. Results are
// identical at every worker count; Stats are returned so engine callers
// can observe the MatchJoin work counters.
func Answer(ctx context.Context, q *pattern.Pattern, x *view.Extensions, s Strategy, workers int) (*simulation.Result, []int, Stats, error) {
	var (
		idx []int
		l   *Lambda
		ok  bool
		err error
		st  Stats
	)
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, st, cerr
		}
	}
	switch s {
	case UseMinimal:
		idx, l, ok, err = Minimal(q, x.Set)
	case UseMinimum:
		idx, l, ok, err = Minimum(q, x.Set)
	default:
		l, ok, err = Contain(ctx, q, x.Set, workers)
		if ok {
			idx = make([]int, x.Set.Card())
			for i := range idx {
				idx[i] = i
			}
		}
	}
	if err != nil {
		return nil, nil, st, err
	}
	if !ok {
		return nil, nil, st, ErrNotContained
	}
	res, st, err := MatchJoin(ctx, q, x, l, workers)
	if err != nil {
		return nil, nil, st, err
	}
	return res, idx, st, nil
}
