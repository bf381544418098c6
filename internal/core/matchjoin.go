package core

// MatchJoin (Fig. 2, Section III) and BMatchJoin (Section VI-A): compute
// Qs(G) from materialized view extensions only, without touching G.
//
// Three interchangeable implementations are provided:
//
//   - MatchJoin: production engine. Support counters plus a removal
//     worklist; each pair is touched O(1) times beyond initialization.
//     With more than one worker the seeding merges fan out per query
//     edge and the fixpoint is parallelized per SCC of the pattern
//     (matchjoin_scc.go), byte-identical at every worker count.
//   - MatchJoinRanked: the paper's Fig. 2 with the Section III
//     "bottom-up" optimization — edges are (re)scanned in ascending rank
//     order. Its Stats expose edge-scan counts, which reproduce Lemma 2
//     (each match set of a DAG pattern is scanned at most once).
//   - MatchJoinNaive: Fig. 2 with no ordering — full passes until
//     fixpoint. This is "MatchJoin_nopt" in the Exp-2 ablation.
//
// All three accept bounded patterns: extension pairs carry their exact
// path lengths, so seeding filters each query edge's union by the query
// bound (the role the paper assigns to the distance index I(V)), after
// which the fixpoint is identical to the plain case. BMatchJoin is an
// explicit alias.
//
// Setup costs about one read of the λ runs. Extension match sets are
// strictly ascending by (Src, Dst), so seeding k-way merges them instead
// of sorting; a query edge fed by a single run the bound filters nothing
// from reads that run in place, and edges with the same λ and bound share
// one seed and its read-only indexes. The working state is dense:
// node ids in [0, universe) where universe covers every id occurring in
// a seeded pair, per-edge CSR indexes (bySrc needs only offsets, since
// pairs are sorted by Src; byDst adds one counting-sorted index array),
// per-edge source/target bitsets that seed the failure counters a word
// at a time, flat int32 support and failure counters, and a bitset of
// alive pairs — all drawn from the query's Scratch arenas, so a pooled
// engine's steady state allocates only the Result.

import (
	"context"
	"math"
	"math/bits"
	"slices"

	"graphviews/internal/bitset"
	"graphviews/internal/graph"
	"graphviews/internal/par"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// Stats reports work done by a MatchJoin run, for the optimization
// experiments (Exp-2) and the Lemma 2 test.
type Stats struct {
	// EdgeScans counts full scans over an edge's match set. For the
	// scan-based variants (MatchJoinRanked, MatchJoinNaive) this is the
	// number of Fig. 2 re-scan passes; for the support-counter engines
	// (MatchJoin, DualMatchJoin) the cascade never
	// re-scans a set, so EdgeScans counts the seeding passes actually
	// performed — one per query edge seeded, stopping at the first edge
	// whose union came up empty.
	EdgeScans int
	// PairKills counts removed candidate pairs.
	PairKills int
	// InitialPairs counts pairs seeded from the views after bound
	// filtering and deduplication.
	InitialPairs int
}

// wordBits is the width of one bitset word; the word-parallel loops
// below walk bitset.Set words directly.
const wordBits = 64

// edgeSet is the working match set of one query edge. pairs are sorted by
// (Src, Dst) over original graph ids; lsrc/ldst carry the same pairs
// re-labeled into the query's compressed id universe [0, m) — the
// distinct ids occurring in any seeded pair, numbered in ascending
// original order (see indexEdgeSets) — which every per-node index below
// is keyed by. Compression keeps the counter arrays and universe scans
// proportional to the match sets, not to |V(G)|.
//
// pairs and dists are read-only: they are either a scratch buffer the
// seeding merge filled or an extension's own match set (see
// buildInitial), and finish copies the survivors out.
type edgeSet struct {
	pairs []simulation.Pair
	dists []int32
	lsrc  []int32    // lsrc[i]: compressed id of pairs[i].Src (ascending)
	ldst  []int32    // ldst[i]: compressed id of pairs[i].Dst
	alive bitset.Set // bit i: pair i not yet killed
	nAliv int
	// srcBits/dstBits: compressed ids occurring as Src/Dst of a seeded
	// pair. They record the seeded state and are never updated by kills.
	srcBits bitset.Set
	dstBits bitset.Set
	// bySrcOff[v], bySrcOff[v+1]: pairs with compressed Src v occupy
	// exactly the index range [bySrcOff[v], bySrcOff[v+1]) — sorting by
	// Src makes a separate index array unnecessary.
	bySrcOff []int32
	// byDstOff/byDstIdx: pairs with compressed Dst v are
	// byDstIdx[byDstOff[v]:byDstOff[v+1]], ascending (counting sort is
	// stable).
	byDstOff []int32
	byDstIdx []int32
	// srcCount[v] = number of alive pairs with compressed Src v.
	srcCount []int32
}

func (es *edgeSet) kill(i int32) bool {
	if !es.alive.TestAndClear(int(i)) {
		return false
	}
	es.nAliv--
	return true
}

// srcRange returns the pair-index range with Src v.
func (es *edgeSet) srcRange(v graph.NodeID) (int32, int32) {
	return es.bySrcOff[v], es.bySrcOff[v+1]
}

// dstPairs returns the pair indices with Dst v.
func (es *edgeSet) dstPairs(v graph.NodeID) []int32 {
	return es.byDstIdx[es.byDstOff[v]:es.byDstOff[v+1]]
}

// buildInitial seeds the per-edge sets: union over λ(e) of the referenced
// extension match sets, filtered by the query edge bound using the
// recorded pair distances, deduplicated keeping minimum distance. scans
// is the number of seeding passes performed (see Stats.EdgeScans).
//
// A sequential sizing pass first counts each edge's in-bound pairs. It
// stops at the first edge whose union is empty (Qs(G) = ∅), so the
// reported scan count — edges up to and including that one — is the
// same at every worker count. The same pass places every edge's pairs:
//
//   - an edge with the same λ runs and bound as an earlier edge shares
//     that edge's pairs;
//   - an edge whose λ is one run the bound filters nothing from aliases
//     that run's Pairs/Dists. The working set is only read, finish
//     copies the survivors out, and published extension results are
//     never mutated in place (view.Maintained.SnapshotExtensions), so
//     aliasing is safe on the serve path;
//   - every other edge gets a buffer carved from the scratch arenas,
//     sized by its in-bound count.
//
// The merges into those buffers then fan out over up to workers
// goroutines; each writes only its own edge's buffer, and no goroutine
// touches the arenas.
func buildInitial(ctx context.Context, q *pattern.Pattern, x *view.Extensions, l *Lambda, workers int, sc *Scratch) ([]edgeSet, bool, int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sets := make([]edgeSet, len(q.Edges))
	merge := sc.i32.MakeDirty(len(q.Edges))[:0]
	// same[qi]: the first earlier edge with the same λ runs and bound,
	// whose pairs edge qi shares, or -1.
	same := sc.i32.MakeDirty(len(q.Edges))
	for qi := range q.Edges {
		if err := ctx.Err(); err != nil {
			return nil, false, 0, err
		}
		refs := l.PerEdge[qi]
		lim := boundLimit(q.Edges[qi].Bound)
		same[qi] = -1
		for qj := range qi {
			if lim == boundLimit(q.Edges[qj].Bound) && slices.Equal(refs, l.PerEdge[qj]) {
				same[qi] = int32(qj)
				break
			}
		}
		if same[qi] >= 0 {
			continue // an identical earlier edge was not empty
		}
		total := 0
		for _, ref := range refs {
			total += countInBound(extEdge(x, ref), lim)
		}
		if total == 0 {
			return nil, false, qi + 1, nil
		}
		es := &sets[qi]
		if se := extEdge(x, refs[0]); len(refs) == 1 && total == len(se.Pairs) {
			es.pairs, es.dists = se.Pairs, se.Dists
			continue
		}
		es.pairs = sc.pairs.MakeDirty(total)
		es.dists = sc.i32.MakeDirty(total)
		merge = append(merge, int32(qi))
	}
	err := par.ForEach(ctx, workers, len(merge), func(i int) {
		qi := merge[i]
		seedEdgeSet(&sets[qi], x, l.PerEdge[qi], boundLimit(q.Edges[qi].Bound))
	})
	if err != nil {
		return nil, false, 0, err
	}
	for qi, qj := range same {
		if qj >= 0 {
			sets[qi].pairs, sets[qi].dists = sets[qj].pairs, sets[qj].dists
		}
	}
	return sets, true, len(q.Edges), nil
}

// extEdge returns the extension match set a λ reference names.
func extEdge(x *view.Extensions, ref ViewEdgeRef) *simulation.EdgeMatches {
	return &x.Exts[ref.View].Result.Edges[ref.Edge]
}

// boundLimit is the largest pair distance a query edge with bound b
// admits.
func boundLimit(b pattern.Bound) int32 {
	if b == pattern.Unbounded {
		return math.MaxInt32
	}
	return int32(b)
}

// countInBound counts the pairs of se within distance lim.
func countInBound(se *simulation.EdgeMatches, lim int32) int {
	if lim == math.MaxInt32 {
		return len(se.Pairs)
	}
	n := 0
	for _, d := range se.Dists {
		if d <= lim {
			n++
		}
	}
	return n
}

// seedEdgeSet k-way merges the λ runs refs of one query edge into the
// edge's buffer, which buildInitial sized by the in-bound pair count. It
// skips pairs farther than lim and keeps the minimum distance of a pair
// several runs share: exactly the sort-and-deduplicate union, without the
// sort, because every run is strictly ascending by (Src, Dst) — the
// EdgeMatches invariant Has/Dist rely on. The buffer is cut to the
// merged length.
func seedEdgeSet(es *edgeSet, x *view.Extensions, refs []ViewEdgeRef, lim int32) {
	var buf [8]seedRun
	runs := buf[:0]
	for _, ref := range refs {
		se := extEdge(x, ref)
		r := seedRun{pairs: se.Pairs, dists: se.Dists}
		if r.seek(lim) {
			runs = append(runs, r)
		}
	}
	n := 0
	for len(runs) > 1 {
		key := runs[0].key
		for j := 1; j < len(runs); j++ {
			key = min(key, runs[j].key)
		}
		d := int32(math.MaxInt32)
		for j := 0; j < len(runs); {
			r := &runs[j]
			if r.key != key {
				j++
				continue
			}
			d = min(d, r.dists[r.i])
			r.i++
			if r.seek(lim) {
				j++
				continue
			}
			runs[j] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
		es.pairs[n] = simulation.Pair{Src: graph.NodeID(key >> 32), Dst: graph.NodeID(uint32(key))}
		es.dists[n] = d
		n++
	}
	if len(runs) == 1 {
		r := &runs[0]
		for i := r.i; i < len(r.pairs); i++ {
			if r.dists[i] <= lim {
				es.pairs[n] = r.pairs[i]
				es.dists[n] = r.dists[i]
				n++
			}
		}
	}
	es.pairs, es.dists = es.pairs[:n], es.dists[:n]
}

// seedRun is a cursor over one extension match set during the seeding
// merge; key packs (Src, Dst) of the current pair so one integer
// comparison orders pairs.
type seedRun struct {
	pairs []simulation.Pair
	dists []int32
	i     int
	key   uint64
}

// seek moves the cursor to the first pair at or after i within distance
// lim and reports whether there is one.
func (r *seedRun) seek(lim int32) bool {
	for r.i < len(r.dists) && r.dists[r.i] > lim {
		r.i++
	}
	if r.i == len(r.pairs) {
		return false
	}
	p := r.pairs[r.i]
	r.key = uint64(uint32(p.Src))<<32 | uint64(uint32(p.Dst))
	return true
}

// indexEdgeSets builds the dense per-edge indexes. It first compresses
// the ids occurring in any seeded pair into the universe [0, m),
// numbered in ascending original-id order, so every "scan compressed ids
// ascending" loop downstream still yields sorted original ids. Then it
// builds each edge's alive bitset, source/target bitsets, bySrc/byDst
// CSR offsets and source support counters. Edges seeded with the same
// pairs share one copy of the read-only indexes. Runs sequentially on
// the scratch arenas after the (possibly parallel) seeding barrier; cost
// O(Σ|Se| + |Eq|·m) plus one bitset sweep over the max original id.
// Returns m and the compressed→original id table.
func indexEdgeSets(sets []edgeSet, sc *Scratch) (int, []graph.NodeID) {
	maxSrc := graph.NodeID(0)
	for qi := range sets {
		if ps := sets[qi].pairs; sharedPairs(sets, qi) < 0 {
			// pairs are sorted by Src, so the last pair carries the max Src.
			maxSrc = max(maxSrc, ps[len(ps)-1].Src)
		}
	}
	present := sc.bits(int(maxSrc) + 1)
	for qi := range sets {
		if sharedPairs(sets, qi) >= 0 {
			continue
		}
		for _, pr := range sets[qi].pairs {
			present.Set(int(pr.Src))
			if int(pr.Dst) >= len(present)*wordBits {
				grown := sc.bits(max(2*len(present)*wordBits, int(pr.Dst)+1))
				copy(grown, present)
				present = grown
			}
			present.Set(int(pr.Dst))
		}
	}
	for len(present) > 1 && present[len(present)-1] == 0 {
		present = present[:len(present)-1] // doubling may overshoot
	}
	// Compressed ids are ranks in the presence bitset, which stays cache
	// resident where an id-indexed remap table would not.
	rk := idRank{present: present, below: sc.i32.MakeDirty(len(present))}
	m := 0
	for wi, w := range present {
		rk.below[wi] = int32(m)
		m += bits.OnesCount64(w)
	}
	toOrig := sc.ids.MakeDirty(m)[:0]
	for wi, w := range present {
		for ; w != 0; w &= w - 1 {
			toOrig = append(toOrig, graph.NodeID(wi*wordBits+bits.TrailingZeros64(w)))
		}
	}

	cur := sc.i32.MakeDirty(m)
	for qi := range sets {
		es := &sets[qi]
		if r := sharedPairs(sets, qi); r >= 0 {
			// Same pairs as an earlier edge: share its read-only indexes;
			// only the alive bits and support counters are per edge.
			*es = sets[r]
			es.alive = sc.bits(es.nAliv)
			es.alive.SetFirst(es.nAliv)
			es.srcCount = sc.i32.MakeDirty(m)
			copy(es.srcCount, sets[r].srcCount)
			continue
		}
		es.index(rk, m, cur, sc)
	}
	return m, toOrig
}

// sharedPairs returns the first edge before qi whose pairs are the same
// slice as qi's (an aliased extension run or a shared seed), or -1.
func sharedPairs(sets []edgeSet, qi int) int {
	p := sets[qi].pairs
	for qj := range qi {
		if o := sets[qj].pairs; len(o) == len(p) && len(p) > 0 && &o[0] == &p[0] {
			return qj
		}
	}
	return -1
}

// index builds es's alive bits, compressed pairs, CSR offsets, source
// support counters and source/target bitsets over the universe [0, m);
// cur is m ints of scratch. Both CSRs are counting sorts over ranked
// ids: the loops carry no data-dependent branches, which cost more than
// the ranks themselves.
func (es *edgeSet) index(rk idRank, m int, cur []int32, sc *Scratch) {
	pairs := es.pairs
	n := len(pairs)
	es.alive = sc.bits(n)
	es.alive.SetFirst(n)
	es.nAliv = n
	lsrc := sc.i32.MakeDirty(n)
	ldst := sc.i32.MakeDirty(n)
	bySrcOff := sc.i32.Make(m + 1)
	byDstOff := sc.i32.Make(m + 1)
	for i, pr := range pairs {
		s, d := rk.of(pr.Src), rk.of(pr.Dst)
		lsrc[i], ldst[i] = s, d
		bySrcOff[s+1]++
		byDstOff[d+1]++
	}
	// One pass per side turns the counts into offsets and records the
	// source support counters and the source/target bitsets. Pairs are
	// sorted by Src, so bySrc needs no index array; byDst is placed by
	// the counting sort.
	srcCount := sc.i32.MakeDirty(m)
	srcBits := bitset.Set(sc.words.MakeDirty(bitset.Words(m)))
	dstBits := bitset.Set(sc.words.MakeDirty(bitset.Words(m)))
	prefixCounts(bySrcOff, srcCount, srcBits)
	prefixCounts(byDstOff, nil, dstBits)
	byDstIdx := sc.i32.MakeDirty(n)
	copy(cur, byDstOff[:m])
	for i, d := range ldst {
		byDstIdx[cur[d]] = int32(i)
		cur[d]++
	}
	es.lsrc, es.ldst, es.srcCount = lsrc, ldst, srcCount
	es.bySrcOff, es.byDstOff, es.byDstIdx = bySrcOff, byDstOff, byDstIdx
	es.srcBits, es.dstBits = srcBits, dstBits
}

// prefixCounts turns off, which holds the count of id v at off[v+1],
// into CSR offsets; it copies the counts into counts when non-nil and
// sets bit v of nonzero for every id with a nonzero count.
func prefixCounts(off, counts []int32, nonzero bitset.Set) {
	var sum int32
	var w uint64
	m := len(off) - 1
	for v := 0; v < m; v++ {
		c := off[v+1]
		if counts != nil {
			counts[v] = c
		}
		sum += c
		off[v+1] = sum
		b := uint(v) % wordBits
		w |= uint64(min(c, 1)) << b
		if b == wordBits-1 || v == m-1 {
			nonzero[v/wordBits] = w
			w = 0
		}
	}
}

// idRank maps the ids of a presence bitset to their compressed ids: the
// compressed id of v is the number of present ids below it.
type idRank struct {
	present bitset.Set
	below   []int32 // below[w]: present ids in words [0, w)
}

func (r idRank) of(v graph.NodeID) int32 {
	w := uint32(v) / wordBits
	mask := uint64(1)<<(uint32(v)%wordBits) - 1
	return r.below[w] + int32(bits.OnesCount64(r.present[w]&mask))
}

// finish assembles the Result from surviving pairs; returns ∅ when any
// edge set died. nu is the compressed universe size and toOrig the
// compressed→original table; ascending compressed scans therefore emit
// sorted original ids. The result is freshly heap-allocated — it must
// not alias scratch memory or the extensions.
func finish(q *pattern.Pattern, sets []edgeSet, nu int, toOrig []graph.NodeID, sc *Scratch) *simulation.Result {
	for qi := range sets {
		if sets[qi].nAliv == 0 {
			return simulation.Empty(q)
		}
	}
	res := &simulation.Result{
		Pattern: q,
		Matched: true,
		Sim:     make([][]graph.NodeID, len(q.Nodes)),
		Edges:   make([]simulation.EdgeMatches, len(q.Edges)),
	}
	for qi := range sets {
		copyAlive(&res.Edges[qi], &sets[qi])
	}
	// Derive node match sets: for a node with out-edges, the sources
	// supported in every out-edge set (intersection — the simulation
	// condition demands a successor in each out-edge); for a sink node
	// the union of targets across its in-edge sets. The union is the
	// correct choice: simulation places no join constraint on the targets
	// of distinct in-edges, so a node matched through one in-edge need
	// not appear in another's match set (pinned by the differential sink
	// tests). Note MatchJoin sees only the views, so a sink match with no
	// incoming matched edge — which direct simulation would report in
	// Sim — cannot be recovered here; the edge match sets Qs(G) agree
	// regardless. Each node's matches are collected as bits first, so its
	// list is allocated at its exact size and comes out sorted.
	keep := sc.bits(nu)
	for u := range q.Nodes {
		keep.Reset()
		if outs := q.OutEdges(u); len(outs) > 0 {
			// Only the first out-edge's seeded sources can qualify.
			for wi, w := range sets[outs[0]].srcBits {
				for ; w != 0; w &= w - 1 {
					v := wi*wordBits + bits.TrailingZeros64(w)
					ok := true
					for _, ei := range outs {
						if sets[ei].srcCount[v] <= 0 {
							ok = false
							break
						}
					}
					if ok {
						keep.Set(v)
					}
				}
			}
		} else {
			for _, ei := range q.InEdges(u) {
				es := &sets[ei]
				es.alive.Iterate(func(i int) bool {
					keep.Set(int(es.ldst[i]))
					return true
				})
			}
		}
		list := make([]graph.NodeID, 0, keep.Count())
		keep.Iterate(func(v int) bool {
			list = append(list, toOrig[v])
			return true
		})
		res.Sim[u] = list
	}
	return res
}

// copyAlive copies es's surviving pairs and distances, in order, into
// fresh exactly-sized slices of em. Whole alive words copy as blocks.
func copyAlive(em *simulation.EdgeMatches, es *edgeSet) {
	if es.nAliv == len(es.pairs) {
		// Appending to nil copies without first zeroing the new slices.
		em.Pairs = append([]simulation.Pair(nil), es.pairs...)
		em.Dists = append([]int32(nil), es.dists...)
		return
	}
	em.Pairs = make([]simulation.Pair, es.nAliv)
	em.Dists = make([]int32, es.nAliv)
	j := 0
	for wi, w := range es.alive {
		base := wi * wordBits
		if w == math.MaxUint64 {
			copy(em.Pairs[j:j+wordBits], es.pairs[base:])
			copy(em.Dists[j:j+wordBits], es.dists[base:])
			j += wordBits
			continue
		}
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			w &= w - 1
			em.Pairs[j] = es.pairs[i]
			em.Dists[j] = es.dists[i]
			j++
		}
	}
}

// MatchJoin evaluates q over the extensions using λ (production engine).
// Callers obtain λ from Contain, Minimal or Minimum; extensions must
// correspond to the full view set λ was built against. Both phases fan
// out over up to workers goroutines: the seeding merges (per-query-edge
// union and bound filtering over the view extensions) run one task per
// merged edge, and the removal fixpoint is decomposed by the pattern's
// SCC condensation into reverse-topological waves of independent
// components (see matchjoin_scc.go). With one worker the fixpoint is the flat
// sequential cascade, the reference the SCC path is tested against.
// Results and Stats are identical at every worker count. It returns
// ctx.Err() when cancelled during seeding or at a wave barrier. Working
// state comes from the package's scratch pool; the Result never aliases
// it.
func MatchJoin(ctx context.Context, q *pattern.Pattern, x *view.Extensions, l *Lambda, workers int) (*simulation.Result, Stats, error) {
	sc := scratchPool.Get()
	defer scratchPool.Put(sc)
	var st Stats
	sets, ok, scans, err := buildInitial(ctx, q, x, l, workers, sc)
	st.EdgeScans = scans
	if err != nil {
		return nil, Stats{}, err
	}
	if !ok {
		return simulation.Empty(q), st, nil
	}
	for qi := range sets {
		st.InitialPairs += len(sets[qi].pairs)
	}
	nu, toOrig := indexEdgeSets(sets, sc)
	if par.Workers(workers) <= 1 {
		// A single worker gains nothing from condensation and wave
		// bookkeeping; run the flat cascade (provably identical).
		return matchJoinFixpoint(q, sets, &st, nu, toOrig, sc), st, nil
	}
	res, err := matchJoinFixpointSCC(ctx, q, sets, &st, nu, toOrig, sc, workers)
	if err != nil {
		return nil, Stats{}, err
	}
	return res, st, nil
}

// seedNodeFailures records pattern node u's initial failure counters:
// for every id v that occurs in some incident edge set (source of an
// out-edge set, or target of an in-edge set) but is not a source in every
// out-edge set, fails counts the out-edges in which v has no source pair;
// it writes failCnt[u·nu+v] and appends the kill, in ascending v. The
// candidates come a word at a time from the seeded bitsets,
// (∪ src(out) ∪ dst(in)) &^ ∩ src(out), so a node's scan reads m/64
// words per incident edge plus the failures themselves. Shared verbatim
// by the sequential cascade and the per-component SCC seeding (phase A)
// — the determinism contract requires both paths to seed
// bit-identically. Sink nodes (no out-edges) never fail.
func seedNodeFailures(q *pattern.Pattern, sets []edgeSet, failCnt []int32, nu, u int, work []kill) []kill {
	outs := q.OutEdges(u)
	if len(outs) == 0 {
		return work // sinks: every referenced node is valid
	}
	ins := q.InEdges(u)
	fc := failCnt[u*nu : (u+1)*nu]
	for wi := range sets[outs[0]].srcBits {
		var some uint64
		all := uint64(math.MaxUint64)
		for _, ei := range outs {
			w := sets[ei].srcBits[wi]
			some |= w
			all &= w
		}
		for _, ei := range ins {
			some |= sets[ei].dstBits[wi]
		}
		for cand := some &^ all; cand != 0; cand &= cand - 1 {
			v := wi*wordBits + bits.TrailingZeros64(cand)
			var fails int32
			for _, ei := range outs {
				if !sets[ei].srcBits.Get(v) {
					fails++
				}
			}
			fc[v] = fails
			work = append(work, kill{u, graph.NodeID(v)})
		}
	}
	return work
}

// matchJoinFixpoint runs the support-counter removal cascade over seeded
// edge sets (the sequential heart of Fig. 2) and assembles the result.
// The cascade always runs to its greatest fixpoint — even when an edge
// set empties along the way — so PairKills is a deterministic function of
// the seeds and matches the SCC-parallel path's count exactly.
func matchJoinFixpoint(q *pattern.Pattern, sets []edgeSet, st *Stats, nu int, toOrig []graph.NodeID, sc *Scratch) *simulation.Result {
	// failCnt[u·nu + v] = number of out-edges of pattern node u in which v
	// has no alive pair as source. A node match (u,v) is valid iff 0.
	failCnt := sc.i32.Make(len(q.Nodes) * nu)
	work := sc.takeKills()

	// Universe per node: sources of out-edge sets and targets of in-edge
	// sets. Seed failCnt and the initial kill list, in ascending rank
	// order of the owning node (bottom-up strategy).
	ranks := q.Ranks()
	order := make([]int, len(q.Nodes))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return ranks[a] - ranks[b] })

	for _, u := range order {
		work = seedNodeFailures(q, sets, failCnt, nu, u, work)
	}

	// Cascade: when (u,v) becomes invalid, dst-side pairs (s,v) of each
	// in-edge e=(w,u) die, reducing s's support in Se; src-side pairs die
	// silently (their removal affects no other counter).
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ei := range q.InEdges(k.u) {
			es := &sets[ei]
			w := q.Edges[ei].From
			fcW := failCnt[w*nu : (w+1)*nu]
			for _, i := range es.dstPairs(k.v) {
				if !es.kill(i) {
					continue
				}
				st.PairKills++
				s := es.lsrc[i]
				es.srcCount[s]--
				if es.srcCount[s] == 0 {
					fcW[s]++
					if fcW[s] == 1 {
						work = append(work, kill{w, graph.NodeID(s)})
					}
				}
			}
		}
		for _, ei := range q.OutEdges(k.u) {
			es := &sets[ei]
			lo, hi := es.srcRange(k.v)
			for i := lo; i < hi; i++ {
				if es.kill(i) {
					st.PairKills++
				}
			}
		}
	}
	sc.giveKills(work)
	return finish(q, sets, nu, toOrig, sc)
}

// BMatchJoin is MatchJoin for bounded pattern queries (Section VI-A). The
// distance filtering I(V) provides in the paper is already encoded in the
// extension pair distances, so the implementations coincide.
func BMatchJoin(q *pattern.Pattern, x *view.Extensions, l *Lambda) (*simulation.Result, Stats) {
	res, st, _ := MatchJoin(context.Background(), q, x, l, 1) // Background: never cancelled
	return res, st
}
