// Package simulation implements the pattern-matching engines of the paper:
// graph simulation (Section II-A, after [16,21]), bounded simulation
// (Section VI, after [16]), and — as the Section VIII extensions — dual and
// strong simulation [28]. Brute-force reference engines used by the test
// suite live in brute.go.
package simulation

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"graphviews/internal/bitset"
	"graphviews/internal/graph"
	"graphviews/internal/pattern"
)

// Pair is a single edge match (v, v') in a match set Se.
type Pair struct {
	Src, Dst graph.NodeID
}

// EdgeMatches is the match set Se of one pattern edge, with the distance
// of each matched path (always 1 for plain simulation; the exact shortest
// path length for bounded simulation). Pairs are kept sorted by (Src,Dst).
type EdgeMatches struct {
	Pairs []Pair
	Dists []int32
}

// Len returns |Se|.
func (em *EdgeMatches) Len() int { return len(em.Pairs) }

// Has reports whether (src,dst) ∈ Se, by binary search.
func (em *EdgeMatches) Has(src, dst graph.NodeID) bool {
	i := em.search(src, dst)
	return i < len(em.Pairs) && em.Pairs[i] == (Pair{src, dst})
}

// Dist returns the recorded distance for (src,dst), or -1 if absent.
func (em *EdgeMatches) Dist(src, dst graph.NodeID) int32 {
	i := em.search(src, dst)
	if i < len(em.Pairs) && em.Pairs[i] == (Pair{src, dst}) {
		return em.Dists[i]
	}
	return -1
}

func (em *EdgeMatches) search(src, dst graph.NodeID) int {
	return sort.Search(len(em.Pairs), func(i int) bool {
		p := em.Pairs[i]
		return p.Src > src || (p.Src == src && p.Dst >= dst)
	})
}

// add appends without maintaining order; call normalize afterwards.
func (em *EdgeMatches) add(src, dst graph.NodeID, d int32) {
	em.Pairs = append(em.Pairs, Pair{src, dst})
	em.Dists = append(em.Dists, d)
}

// normalize sorts by (Src,Dst) and deduplicates, keeping minimum
// distance. Match sets assembled by an ascending scan — the common case,
// since node match lists and adjacency are both sorted — are detected in
// one pass and returned untouched, skipping the sort and its copies.
func (em *EdgeMatches) normalize() {
	if len(em.Pairs) == 0 {
		return
	}
	sorted := true
	for i := 1; i < len(em.Pairs); i++ {
		p, q := em.Pairs[i-1], em.Pairs[i]
		if p.Src > q.Src || (p.Src == q.Src && p.Dst >= q.Dst) {
			sorted = false
			break
		}
	}
	if sorted { // strictly ascending: already canonical, no duplicates
		return
	}
	idx := make([]int32, len(em.Pairs))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		pa, pb := em.Pairs[a], em.Pairs[b]
		if pa.Src != pb.Src {
			return int(pa.Src) - int(pb.Src)
		}
		if pa.Dst != pb.Dst {
			return int(pa.Dst) - int(pb.Dst)
		}
		return int(em.Dists[a]) - int(em.Dists[b])
	})
	newP := make([]Pair, 0, len(em.Pairs))
	newD := make([]int32, 0, len(em.Dists))
	for _, i := range idx {
		if n := len(newP); n > 0 && newP[n-1] == em.Pairs[i] {
			continue // duplicate; the first kept has the smaller distance
		}
		newP = append(newP, em.Pairs[i])
		newD = append(newD, em.Dists[i])
	}
	em.Pairs = newP
	em.Dists = newD
}

// Result is a query result Qs(G) = {(e, Se)}: one match set per pattern
// edge, plus the node match sets sim(u) it was derived from. When the
// pattern has no match in G, Matched is false and all sets are empty
// (Qs(G) = ∅ in the paper's notation).
type Result struct {
	Pattern *pattern.Pattern
	Matched bool
	// Sim[u] is the sorted match set of pattern node u.
	Sim [][]graph.NodeID
	// Edges[i] is the match set of pattern edge i.
	Edges []EdgeMatches
}

// Empty returns the ∅ result for p (Qs(G) = ∅).
func Empty(p *pattern.Pattern) *Result { return emptyResult(p) }

// emptyResult builds the ∅ result for p.
func emptyResult(p *pattern.Pattern) *Result {
	return &Result{
		Pattern: p,
		Matched: false,
		Sim:     make([][]graph.NodeID, len(p.Nodes)),
		Edges:   make([]EdgeMatches, len(p.Edges)),
	}
}

// Size returns |Qs(G)|: the total number of edges over all match sets.
func (r *Result) Size() int {
	total := 0
	for i := range r.Edges {
		total += len(r.Edges[i].Pairs)
	}
	return total
}

// NodeMatches returns the match set of pattern node u.
func (r *Result) NodeMatches(u int) []graph.NodeID { return r.Sim[u] }

// Equal reports whether two results are identical (same pattern shape,
// same match sets; distances included).
func (r *Result) Equal(o *Result) bool {
	if r.Matched != o.Matched || len(r.Edges) != len(o.Edges) {
		return false
	}
	if !r.Matched {
		return true
	}
	for i := range r.Edges {
		a, b := &r.Edges[i], &o.Edges[i]
		if len(a.Pairs) != len(b.Pairs) {
			return false
		}
		for j := range a.Pairs {
			if a.Pairs[j] != b.Pairs[j] || a.Dists[j] != b.Dists[j] {
				return false
			}
		}
	}
	return true
}

// EqualIgnoreDist compares match sets only (used where two algorithms may
// record different—but equally valid—path lengths).
func (r *Result) EqualIgnoreDist(o *Result) bool {
	if r.Matched != o.Matched || len(r.Edges) != len(o.Edges) {
		return false
	}
	if !r.Matched {
		return true
	}
	for i := range r.Edges {
		a, b := &r.Edges[i], &o.Edges[i]
		if len(a.Pairs) != len(b.Pairs) {
			return false
		}
		for j := range a.Pairs {
			if a.Pairs[j] != b.Pairs[j] {
				return false
			}
		}
	}
	return true
}

// String renders the result as a per-edge table in the style of the
// paper's Example 2, using node names from g when provided.
func (r *Result) String() string {
	if !r.Matched {
		return fmt.Sprintf("%s(G) = ∅", r.Pattern.Name)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s(G):\n", r.Pattern.Name)
	for i, e := range r.Pattern.Edges {
		fmt.Fprintf(&sb, "  (%s,%s):", r.Pattern.Nodes[e.From].Name, r.Pattern.Nodes[e.To].Name)
		for _, pr := range r.Edges[i].Pairs {
			fmt.Fprintf(&sb, " (%d,%d)", pr.Src, pr.Dst)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// simToSorted converts membership bitset rows into sorted id slices. The
// lists are freshly allocated (exactly sized by popcount) — results must
// never alias scratch-arena memory.
func simToSorted(inSim *bitset.Matrix) [][]graph.NodeID {
	out := make([][]graph.NodeID, inSim.Rows())
	for u := range out {
		row := inSim.Row(u)
		lst := make([]graph.NodeID, 0, row.Count())
		row.Iterate(func(v int) bool {
			lst = append(lst, graph.NodeID(v))
			return true
		})
		out[u] = lst
	}
	return out
}
