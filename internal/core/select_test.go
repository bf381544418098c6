package core

import (
	"context"
	"graphviews/internal/pattern"
	"math/rand"
	"testing"
)

// TestSelectViewsCoversWorkload: the chosen subset contains every
// workload query; dropping to fewer views than chosen loses some query.
func TestSelectViewsCoversWorkload(t *testing.T) {
	vs := fig4Views()
	q1 := fig4Qs()
	// A second query: just the A->B, A->C prong.
	q2 := pattern.New("q2")
	a := q2.AddNode("a", "A")
	q2.AddEdge(a, q2.AddNode("b", "B"))
	q2.AddEdge(a, q2.AddNode("c", "C"))

	chosen, ok, err := SelectViews([]*pattern.Pattern{q1, q2}, vs)
	if err != nil || !ok {
		t.Fatalf("SelectViews: %v %v", ok, err)
	}
	sub := vs.Subset(chosen)
	for _, q := range []*pattern.Pattern{q1, q2} {
		if _, okC, _ := Contain(context.Background(), q, sub, 1); !okC {
			t.Fatalf("chosen views %v do not contain %s", chosen, q.Name)
		}
	}
	// The Fig. 4 instance is coverable with 2 views (V5, V6); the greedy
	// two-level cover must not need more than the per-query minimum sum.
	if len(chosen) > 3 {
		t.Fatalf("selection too large: %v", chosen)
	}
}

func TestSelectViewsImpossible(t *testing.T) {
	vs := fig4Views()
	q := fig4Qs()
	z := q.AddNode("z", "Z")
	q.AddEdge(q.NodeIndex("e"), z) // E -> Z: no view mentions Z
	chosen, ok, err := SelectViews([]*pattern.Pattern{q}, vs)
	if err != nil {
		t.Fatalf("SelectViews: %v", err)
	}
	if ok {
		t.Fatalf("workload cannot be coverable")
	}
	// It still covers what it can.
	if len(chosen) == 0 {
		t.Fatalf("partial selection should not be empty")
	}
}

// TestSelectViewsRandomWorkload: glued queries are always coverable, and
// the selection stays no larger than the union of per-query minimums.
func TestSelectViewsRandomWorkload(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 25; trial++ {
		vs := randomViews(rng, labels, false)
		var workload []*pattern.Pattern
		unionOfMin := map[int]bool{}
		for i := 0; i < 3; i++ {
			q := glueContainedQuery(rng, vs, rng.Intn(2))
			if q == nil {
				continue
			}
			workload = append(workload, q)
			mnm, _, ok, _ := Minimum(q, vs)
			if !ok {
				t.Fatalf("glued query not contained")
			}
			for _, v := range mnm {
				unionOfMin[v] = true
			}
		}
		if len(workload) == 0 {
			continue
		}
		chosen, ok, err := SelectViews(workload, vs)
		if err != nil || !ok {
			t.Fatalf("trial %d: SelectViews: %v %v", trial, ok, err)
		}
		if len(chosen) > len(unionOfMin) {
			t.Fatalf("trial %d: selection %v larger than union of minimums %v",
				trial, chosen, unionOfMin)
		}
		sub := vs.Subset(chosen)
		for _, q := range workload {
			if _, okC, _ := Contain(context.Background(), q, sub, 1); !okC {
				t.Fatalf("trial %d: workload query lost coverage", trial)
			}
		}
	}
}
