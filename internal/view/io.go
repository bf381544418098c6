package view

// Text serialization for materialized extensions, so cached views can be
// shipped between processes (cmd/gvviews materializes once; cmd/gvmatch
// can then answer queries without the data graph, which is the entire
// point of the paper). Format:
//
//	view <name> matched=<0|1>
//	sim <patternNodeIdx> <id> <id> ...
//	ematch <patternEdgeIdx> <src> <dst> <dist>
//
// Extensions are read back against the defining ViewSet; names and shapes
// must agree.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"graphviews/internal/graph"
	"graphviews/internal/simulation"
)

// WriteExtensions serializes x.
func WriteExtensions(w io.Writer, x *Extensions) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# graphviews extensions: %d views, %d pairs\n", len(x.Exts), x.TotalEdges())
	for _, e := range x.Exts {
		m := 0
		if e.Result.Matched {
			m = 1
		}
		fmt.Fprintf(bw, "view %s matched=%d\n", e.Def.Name, m)
		if !e.Result.Matched {
			continue
		}
		for u, sims := range e.Result.Sim {
			fmt.Fprintf(bw, "sim %d", u)
			for _, v := range sims {
				fmt.Fprintf(bw, " %d", v)
			}
			fmt.Fprintln(bw)
		}
		for ei := range e.Result.Edges {
			em := &e.Result.Edges[ei]
			for j, pr := range em.Pairs {
				fmt.Fprintf(bw, "ematch %d %d %d %d\n", ei, pr.Src, pr.Dst, em.Dists[j])
			}
		}
	}
	return bw.Flush()
}

// ReadExtensions parses extensions for the given view set. Views must
// appear in set order with matching names.
func ReadExtensions(r io.Reader, s *Set) (*Extensions, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	x := &Extensions{Set: s}
	var cur *Extension
	vi := -1
	lineNo := 0
	finish := func() {
		if cur != nil {
			for ei := range cur.Result.Edges {
				// Stored sorted; re-normalizing keeps the extension
				// contract even for hand-edited files.
				sortEdgeMatches(&cur.Result.Edges[ei])
			}
		}
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "view":
			if len(fields) != 3 || !strings.HasPrefix(fields[2], "matched=") {
				return nil, fmt.Errorf("view: line %d: malformed view header", lineNo)
			}
			finish()
			vi++
			if vi >= len(s.Defs) {
				return nil, fmt.Errorf("view: line %d: more views than definitions", lineNo)
			}
			if s.Defs[vi].Name != fields[1] {
				return nil, fmt.Errorf("view: line %d: view %q does not match definition %q", lineNo, fields[1], s.Defs[vi].Name)
			}
			p := s.Defs[vi].Pattern
			matched := fields[2] == "matched=1"
			cur = &Extension{Def: s.Defs[vi], Result: &simulation.Result{
				Pattern: p,
				Matched: matched,
				Sim:     make([][]graph.NodeID, len(p.Nodes)),
				Edges:   make([]simulation.EdgeMatches, len(p.Edges)),
			}}
			x.Exts = append(x.Exts, cur)
		case "sim":
			if cur == nil || len(fields) < 2 {
				return nil, fmt.Errorf("view: line %d: sim outside view", lineNo)
			}
			u, err := strconv.Atoi(fields[1])
			if err != nil || u < 0 || u >= len(cur.Result.Sim) {
				return nil, fmt.Errorf("view: line %d: bad sim node index", lineNo)
			}
			for _, f := range fields[2:] {
				id, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("view: line %d: bad node id %q", lineNo, f)
				}
				cur.Result.Sim[u] = append(cur.Result.Sim[u], graph.NodeID(id))
			}
		case "ematch":
			if cur == nil || len(fields) != 5 {
				return nil, fmt.Errorf("view: line %d: malformed ematch", lineNo)
			}
			ei, err1 := strconv.Atoi(fields[1])
			src, err2 := strconv.Atoi(fields[2])
			dst, err3 := strconv.Atoi(fields[3])
			d, err4 := strconv.Atoi(fields[4])
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil ||
				ei < 0 || ei >= len(cur.Result.Edges) {
				return nil, fmt.Errorf("view: line %d: bad ematch fields", lineNo)
			}
			em := &cur.Result.Edges[ei]
			em.Pairs = append(em.Pairs, simulation.Pair{Src: graph.NodeID(src), Dst: graph.NodeID(dst)})
			em.Dists = append(em.Dists, int32(d))
		default:
			return nil, fmt.Errorf("view: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	finish()
	if vi+1 != len(s.Defs) {
		return nil, fmt.Errorf("view: %d extensions for %d definitions", vi+1, len(s.Defs))
	}
	return x, nil
}

// sortEdgeMatches restores the strictly ascending (Src, Dst) invariant
// that Has/Dist lookups and MatchJoin's seeding merge rely on: an
// insertion sort (a stored set is already sorted, so it costs one pass),
// then repeated pairs collapse to their minimum distance.
func sortEdgeMatches(em *simulation.EdgeMatches) {
	n := len(em.Pairs)
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			a, b := em.Pairs[j-1], em.Pairs[j]
			if a.Src < b.Src || (a.Src == b.Src && a.Dst <= b.Dst) {
				break
			}
			em.Pairs[j-1], em.Pairs[j] = em.Pairs[j], em.Pairs[j-1]
			em.Dists[j-1], em.Dists[j] = em.Dists[j], em.Dists[j-1]
		}
	}
	k := 0
	for i := 0; i < n; i++ {
		if k > 0 && em.Pairs[k-1] == em.Pairs[i] {
			em.Dists[k-1] = min(em.Dists[k-1], em.Dists[i])
			continue
		}
		em.Pairs[k], em.Dists[k] = em.Pairs[i], em.Dists[i]
		k++
	}
	em.Pairs, em.Dists = em.Pairs[:k], em.Dists[:k]
}
