package core

// Paper-named entry points for the bounded versions of Section VI-B. The
// generic implementations in contain.go already dispatch on edge bounds
// (weighted view matches cover the plain case with all weights 1), so
// these are documented aliases kept for fidelity with the paper's
// algorithm names: Bcontain, Bminimal, Bminimum.

import (
	"context"

	"graphviews/internal/pattern"
	"graphviews/internal/view"
)

// BContain decides Qb ⊑ V for bounded pattern queries (Theorem 10(1)).
func BContain(q *pattern.Pattern, vs *view.Set) (*Lambda, bool, error) {
	return Contain(context.Background(), q, vs, 1)
}

// BMinimal solves minimal bounded containment (Theorem 10(2)).
func BMinimal(q *pattern.Pattern, vs *view.Set) ([]int, *Lambda, bool, error) {
	return Minimal(q, vs)
}

// BMinimum approximates minimum bounded containment BMMCP within
// O(log |Ep|) (Theorem 10(3)).
func BMinimum(q *pattern.Pattern, vs *view.Set) ([]int, *Lambda, bool, error) {
	return Minimum(q, vs)
}
