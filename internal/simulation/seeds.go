package simulation

// Cross-query candidate memoization. Materializing a view set evaluates
// every view over the same graph, and view families share node
// conditions heavily (the same typed nodes recur across views), so the
// candidate seeding — a predicate scan over a label partition, the
// single hottest phase of the answer pipeline — would otherwise be
// repeated once per occurrence. CandidateSeeds computes each distinct
// (condition, out-degree-prune) combination exactly once and shares the
// resulting slice read-only across patterns: every engine treats
// candidate sets as immutable input (the plain and dual fixpoints copy
// membership into bitset rows; the bounded fixpoint copies into its own
// simList), so sharing cannot change any result.

import (
	"context"
	"strconv"
	"strings"

	"graphviews/internal/graph"
	"graphviews/internal/par"
	"graphviews/internal/pattern"
)

// condKey renders a node condition plus the out-degree prune flag into a
// canonical cache key. Every variable-length field is length-prefixed,
// so no two distinct conditions can serialize to the same bytes (e.g.
// attribute "a1" with value 3 vs attribute "a" with value 13).
// Predicates are keyed in authored order: two permutations of the same
// predicates hash differently and merely miss the cache, which is safe
// (both computations yield the same set).
func condKey(sb *strings.Builder, n *pattern.Node, needOut bool) string {
	sb.Reset()
	if needOut {
		sb.WriteByte('!')
	}
	writeStr := func(s string) {
		sb.WriteString(strconv.Itoa(len(s)))
		sb.WriteByte(':')
		sb.WriteString(s)
	}
	writeStr(n.Label)
	for i := range n.Preds {
		p := &n.Preds[i]
		writeStr(p.Attr)
		sb.WriteByte(byte(p.Op) + '0')
		if p.IsStr {
			sb.WriteByte('s')
			writeStr(p.Str)
		} else {
			sb.WriteByte('i')
			sb.WriteString(strconv.FormatInt(p.Val, 10))
			sb.WriteByte(';') // terminate digits before the next length prefix
		}
	}
	return sb.String()
}

// CandidateSeeds computes the per-node candidate sets of a family of
// patterns over one graph, memoizing identical node conditions across
// the family (and within one pattern). The distinct conditions are
// evaluated over up to workers goroutines. pruneOut selects the plain
// simulation seeding (out-degree prune on plain patterns' nodes with
// out-edges, as in Simulate); pass false for dual materialization,
// where the prune is invalid. The returned slices are shared wherever
// conditions coincide and must be treated as read-only; pass them to
// SimulateFromSeeds / SimulateDualFromSeeds. Results are identical to
// per-pattern candidate computation at every worker count.
//
// Over a *graph.Sharded backend with more than one shard, each condition
// is evaluated per shard — conditions × shards tasks on the pool, each
// scanning a shard-local label partition — and the per-shard lists are
// merged ascending, so the hottest phase of materialization parallelizes
// across shards with no shared index and no lock. The merged sets are
// byte-identical to the single-backend scan.
//
// Under a cancelled ctx some sets may be missing; callers must check ctx
// before using the seeds (view.Materialize's worker pool does).
func CandidateSeeds(ctx context.Context, g graph.Reader, pats []*pattern.Pattern, workers int, pruneOut bool) [][][]graph.NodeID {
	type cond struct {
		cn      pattern.CompiledNode
		needOut bool
		out     []graph.NodeID
	}
	var (
		conds []*cond
		index = make(map[string]int)
		sb    strings.Builder
	)
	// slot[pi][u] = index into conds.
	slot := make([][]int, len(pats))
	for pi, p := range pats {
		requireOut := pruneOut && p.IsPlain()
		slot[pi] = make([]int, len(p.Nodes))
		for u := range p.Nodes {
			needOut := requireOut && len(p.OutEdges(u)) > 0
			key := condKey(&sb, &p.Nodes[u], needOut)
			ci, ok := index[key]
			if !ok {
				ci = len(conds)
				index[key] = ci
				conds = append(conds, &cond{cn: pattern.CompileNode(&p.Nodes[u], g), needOut: needOut})
			}
			slot[pi][u] = ci
		}
	}
	if sh, ok := g.(*graph.Sharded); ok && sh.NumShards() > 1 {
		// Shard-parallel seeding: evaluate each distinct condition per
		// shard (conditions × shards tasks over the pool, scanning the
		// shard-local label partitions with no lock), then merge the
		// ascending per-shard candidate lists. The merged sets are
		// byte-identical to the unsharded scan — shard s owns exactly the
		// ids ≡ s (mod k), so the k-way merge reassembles the global
		// ascending partition order the engines rely on.
		k := sh.NumShards()
		parts := make([][]graph.NodeID, len(conds)*k)
		par.ForEach(ctx, workers, len(conds)*k, func(t int) {
			c := conds[t/k]
			parts[t] = shardCandidateSet(sh, t%k, &c.cn, c.needOut)
		})
		par.ForEach(ctx, workers, len(conds), func(ci int) {
			sub := parts[ci*k : (ci+1)*k]
			total := 0
			for _, p := range sub {
				total += len(p)
			}
			conds[ci].out = graph.MergeAscending(sub, total)
		})
	} else {
		par.ForEach(ctx, workers, len(conds), func(ci int) {
			c := conds[ci]
			c.out = candidateSet(g, &c.cn, c.needOut)
		})
	}
	seeds := make([][][]graph.NodeID, len(pats))
	for pi := range pats {
		cands := make([][]graph.NodeID, len(slot[pi]))
		for u, ci := range slot[pi] {
			cands[u] = conds[ci].out
		}
		seeds[pi] = cands
	}
	return seeds
}

// SimulateFromSeeds evaluates p from precomputed candidate sets (see
// CandidateSeeds), dispatching on the pattern class exactly like
// Simulate. cands is read, never written or retained. It is the
// materialization path: working state comes from the package's scratch
// pool, so repeated materializations stop allocating fixpoint state, and
// the Result never aliases scratch memory.
func SimulateFromSeeds(ctx context.Context, g graph.Reader, p *pattern.Pattern, cands [][]graph.NodeID, workers int) *Result {
	sc := scratchPool.Get()
	defer scratchPool.Put(sc)
	return simulateFrom(ctx, g, p, cands, workers, sc)
}

// SimulateDualFromSeeds is the dual-simulation counterpart of
// SimulateFromSeeds; the seeds must have been computed with pruneOut
// false (dual semantics constrain both directions, so the out-degree
// prune is invalid).
func SimulateDualFromSeeds(g graph.Reader, p *pattern.Pattern, cands [][]graph.NodeID) *Result {
	sc := scratchPool.Get()
	defer scratchPool.Put(sc)
	return simulateDualSeeded(g, p, cands, sc)
}
