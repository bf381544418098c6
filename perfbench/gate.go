package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	gv "graphviews"
)

// answer is a /query or /match response with its full match sets.
type answer struct {
	Epoch   uint64    `json:"epoch"`
	Matched bool      `json:"matched"`
	Size    int       `json:"size"`
	Edges   []edgeSet `json:"edges"`
}

// edgeSet is one pattern edge's match set.
type edgeSet struct {
	From  string     `json:"from"`
	To    string     `json:"to"`
	Pairs [][2]int64 `json:"pairs"`
}

// matchSets keys an answer's match sets by pattern edge.
func (a *answer) matchSets() map[string][][2]int64 {
	m := map[string][][2]int64{}
	for _, e := range a.Edges {
		ps := slices.Clone(e.Pairs)
		slices.SortFunc(ps, cmpPair)
		m[e.From+"->"+e.To] = ps
	}
	return m
}

func cmpPair(a, b [2]int64) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// resultAnswer renders an in-process result the way the server does.
func resultAnswer(r *gv.Result) *answer {
	a := &answer{Matched: r.Matched, Size: r.Size()}
	if !r.Matched {
		return a
	}
	for i, e := range r.Pattern.Edges {
		ps := make([][2]int64, len(r.Edges[i].Pairs))
		for j, p := range r.Edges[i].Pairs {
			ps[j] = [2]int64{int64(p.Src), int64(p.Dst)}
		}
		a.Edges = append(a.Edges, edgeSet{r.Pattern.Nodes[e.From].Name, r.Pattern.Nodes[e.To].Name, ps})
	}
	return a
}

// sameAnswer reports why two answers differ, or "" when they agree.
func sameAnswer(a, b *answer) string {
	if a.Matched != b.Matched {
		return fmt.Sprintf("matched %v vs %v", a.Matched, b.Matched)
	}
	if !a.Matched {
		return ""
	}
	if a.Size != b.Size {
		return fmt.Sprintf("size %d vs %d", a.Size, b.Size)
	}
	ma, mb := a.matchSets(), b.matchSets()
	if len(ma) != len(mb) {
		return fmt.Sprintf("%d vs %d pattern edges", len(ma), len(mb))
	}
	for k, pa := range ma {
		if !slices.Equal(pa, mb[k]) {
			return fmt.Sprintf("match set of edge %s differs (%d vs %d pairs)", k, len(pa), len(mb[k]))
		}
	}
	return ""
}

// gate checks every distinct query: /query?pairs=1&limit=0 must equal
// /match on the same epoch and direct simulation over ref, the benchmark's
// own copy of the graph the server should hold.
func gate(c *client, in *inputs, ref gv.GraphReader) error {
	for i, body := range in.bodies {
		var qa, ma answer
		for attempt := 0; ; attempt++ {
			if err := postAnswer(c, "/query?strategy=minimal&pairs=1&limit=0", body, &qa); err != nil {
				return fmt.Errorf("query %d: %w", i, err)
			}
			if err := postAnswer(c, "/match?pairs=1&limit=0", body, &ma); err != nil {
				return fmt.Errorf("query %d: %w", i, err)
			}
			if qa.Epoch == ma.Epoch {
				break
			}
			if attempt == 2 {
				return fmt.Errorf("query %d: /query and /match never answered from the same epoch", i)
			}
		}
		if d := sameAnswer(&qa, &ma); d != "" {
			return fmt.Errorf("query %d: /query and /match differ on epoch %d: %s", i, qa.Epoch, d)
		}
		if d := sameAnswer(&qa, resultAnswer(gv.Match(ref, in.queries[i]))); d != "" {
			return fmt.Errorf("query %d: /query differs from direct evaluation on the benchmark's graph: %s", i, d)
		}
	}
	return nil
}

func postAnswer(c *client, path string, body []byte, a *answer) error {
	*a = answer{}
	code, data, err := c.do(http.MethodPost, path, body, true)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, code, data)
	}
	return json.Unmarshal(data, a)
}
