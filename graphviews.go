// Package graphviews answers graph pattern queries using views, as
// described in:
//
//	Wenfei Fan, Xin Wang, Yinghui Wu.
//	"Answering Graph Pattern Queries Using Views." ICDE 2014.
//
// Pattern matching is defined by graph simulation and bounded simulation.
// Given a set of view definitions V (patterns) materialized over a data
// graph G, a query Qs can be answered from the cached extensions V(G)
// alone — never touching G — exactly when Qs is contained in V (pattern
// containment, Theorem 1). This package exposes:
//
//   - data graphs (Graph) and pattern queries (Pattern, parsed from a
//     small DSL or built programmatically), with per-node predicates and
//     per-edge distance bounds;
//   - matching engines: Match (simulation / bounded simulation
//     dispatch), MatchDual and MatchStrong (the Section VIII extensions);
//   - views: Define / NewViewSet / Materialize, plus incrementally
//     maintained extensions (NewMaintained);
//   - containment analysis: Contains, MinimalViews (quadratic),
//     MinimumViews (greedy O(log|Ep|)-approximation of the NP-complete
//     minimum problem), and QueryContained (classical containment);
//   - view-based evaluation: Answer and MatchJoin/BMatchJoin;
//   - a concurrent pipeline: NewEngine with WithParallelism /
//     WithContext / WithShards runs materialization, containment and
//     MatchJoin seeding over a worker pool with cancellation — and,
//     when sharding is configured, over hash-partitioned CSR shards
//     (Shard) — producing results identical to the sequential entry
//     points.
//
// The quickstart in examples/quickstart walks through the paper's
// Fig. 1 end to end.
package graphviews

import (
	"context"
	"io"

	"graphviews/internal/core"
	"graphviews/internal/graph"
	"graphviews/internal/pattern"
	"graphviews/internal/simulation"
	"graphviews/internal/view"
)

// Re-exported substrate types. The aliases expose the full method sets of
// the internal implementations.
type (
	// Graph is a directed data graph with labeled nodes and optional
	// integer/categorical attributes.
	Graph = graph.Graph
	// GraphReader is the read-only graph abstraction every evaluation
	// entry point accepts; *Graph, *Frozen and *Sharded all satisfy it.
	GraphReader = graph.Reader
	// Frozen is an immutable CSR snapshot of a data graph (see Freeze):
	// flat edge arrays, a prebuilt lock-free label index and frozen
	// attribute columns, safe for unsynchronized concurrent reads.
	Frozen = graph.Frozen
	// Sharded is a hash-partitioned immutable backend of k CSR shards
	// (see Shard): per-shard label partitions with merge-on-read global
	// NodesWithLabel, and per-shard boundary arrays of cross-shard edges.
	Sharded = graph.Sharded
	// NodeID identifies a node of a Graph.
	NodeID = graph.NodeID
	// LabelID is an interned node label.
	LabelID = graph.LabelID
	// Pattern is a (possibly bounded) graph pattern query.
	Pattern = pattern.Pattern
	// PatternNode is a pattern node: name, label, predicates.
	PatternNode = pattern.Node
	// PatternEdge is a directed pattern edge with a bound.
	PatternEdge = pattern.Edge
	// Bound is an edge bound: a positive hop count or Unbounded.
	Bound = pattern.Bound
	// Predicate is a comparison on a node attribute.
	Predicate = pattern.Predicate
	// Op is a predicate comparison operator.
	Op = pattern.Op
	// Result is a query result {(e, Se)}: one match set per pattern edge.
	Result = simulation.Result
	// Pair is a single (v, v') edge match.
	Pair = simulation.Pair
	// ViewDefinition is a named view: a pattern to materialize.
	ViewDefinition = view.Definition
	// ViewSet is an ordered set of view definitions.
	ViewSet = view.Set
	// Extensions is a materialized family V(G).
	Extensions = view.Extensions
	// DistIndex is the distance index I(V) for bounded answering.
	DistIndex = view.DistIndex
	// Maintained couples a graph with incrementally maintained extensions.
	Maintained = view.Maintained
	// EdgeUpdate is one element of a Maintained.ApplyBatch update stream.
	EdgeUpdate = view.EdgeUpdate
	// MaintStats counts what incremental maintenance did: recomputes,
	// delta propagations, fast-path skips, coalesced-away updates,
	// affected candidate pairs, batches and propagation time.
	MaintStats = view.MaintStats
	// Feed buffers and coalesces edge updates ahead of a Maintained so
	// propagation cost is paid per flush rather than per write.
	Feed = view.Feed
	// Lambda maps query edges to the view edges whose extensions seed them.
	Lambda = core.Lambda
	// ViewEdgeRef addresses one edge of one view.
	ViewEdgeRef = core.ViewEdgeRef
	// Strategy selects which views feed MatchJoin.
	Strategy = core.Strategy
	// Stats reports MatchJoin work counters.
	Stats = core.Stats
)

// Unbounded is the * edge bound: any nonempty path length.
const Unbounded = pattern.Unbounded

// Predicate operators.
const (
	OpEq = pattern.OpEq
	OpNe = pattern.OpNe
	OpLt = pattern.OpLt
	OpLe = pattern.OpLe
	OpGt = pattern.OpGt
	OpGe = pattern.OpGe
)

// View-selection strategies for Answer.
const (
	UseAll     = core.UseAll
	UseMinimal = core.UseMinimal
	UseMinimum = core.UseMinimum
)

// ErrNotContained is returned by Answer when the query is not contained
// in the views and therefore cannot be answered from them (Theorem 1).
var ErrNotContained = core.ErrNotContained

// NewGraph returns an empty data graph.
func NewGraph() *Graph { return graph.New() }

// NewGraphWithCapacity returns an empty graph with room for n nodes.
func NewGraphWithCapacity(n int) *Graph { return graph.NewWithCapacity(n) }

// Freeze builds an immutable CSR snapshot of g in O(|V|+|E|): evaluation
// over a Frozen shares no mutable state with the source graph, drops the
// label-index mutex from the hottest read path and improves cache
// locality for the simulation fixpoints. Freezing a *Frozen is a no-op.
// Thaw() on the snapshot round-trips back to a mutable *Graph.
func Freeze(g GraphReader) *Frozen { return graph.Freeze(g) }

// Shard splits any graph backend into k hash partitions in O(|V|+|E|):
// shard s owns the nodes v with v mod k == s, holding their full CSR
// adjacency, a shard-local label partition, frozen attribute columns and
// the boundary array of its cross-shard out-edges. The result satisfies
// GraphReader, so every evaluation entry point runs on it unchanged —
// over a Sharded the engines' candidate seeding fans out per shard —
// and results are byte-identical to the other backends at any k.
// Unshard() flattens back to a *Frozen. Sharding a *Sharded at the same
// k is a no-op.
func Shard(g GraphReader, k int) *Sharded { return graph.Shard(g, k) }

// ReadGraph parses a graph in the text format written by WriteGraph.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// WriteGraph serializes g.
func WriteGraph(w io.Writer, g GraphReader) error { return graph.Write(w, g) }

// NewPattern returns an empty pattern with the given name.
func NewPattern(name string) *Pattern { return pattern.New(name) }

// ParsePattern parses one pattern in the DSL, e.g.
//
//	pattern Q {
//	  node v: video [category="Music", rate>=40]
//	  node w: video
//	  edge v -> w <=2
//	}
func ParsePattern(src string) (*Pattern, error) { return pattern.Parse(src) }

// ParsePatterns parses any number of patterns from one source.
func ParsePatterns(src string) ([]*Pattern, error) { return pattern.ParseAll(src) }

// IntPred builds a numeric predicate.
func IntPred(attr string, op Op, val int64) Predicate { return pattern.IntPred(attr, op, val) }

// StrPred builds a categorical predicate.
func StrPred(attr string, op Op, val string) Predicate { return pattern.StrPred(attr, op, val) }

// Match evaluates q over g directly: graph simulation for plain patterns
// (all bounds 1), bounded simulation otherwise. This is the paper's
// baseline Match/BMatch. g may be the mutable *Graph or a Freeze
// snapshot; results are identical across backends.
func Match(g GraphReader, q *Pattern) *Result {
	return simulation.Simulate(context.Background(), g, q, 1)
}

// MatchDual evaluates q under dual simulation (forward and backward
// conditions; Section VIII extension).
func MatchDual(g GraphReader, q *Pattern) *Result {
	return simulation.SimulateDual(context.Background(), g, q, 1)
}

// MatchStrong evaluates q under strong simulation (dual simulation within
// locality balls; Section VIII extension).
func MatchStrong(g GraphReader, q *Pattern) *Result { return simulation.SimulateStrong(g, q) }

// Define names a pattern as a view definition.
func Define(name string, p *Pattern) *ViewDefinition { return view.Define(name, p) }

// NewViewSet builds a view set V = {V1, ..., Vn}.
func NewViewSet(defs ...*ViewDefinition) *ViewSet { return view.NewSet(defs...) }

// Materialize evaluates every view over g, producing the extensions V(G).
func Materialize(g GraphReader, vs *ViewSet) *Extensions {
	x, _ := view.Materialize(context.Background(), g, vs, 1) // never cancelled
	return x
}

// BuildDistIndex builds the distance index I(V) over materialized
// extensions (Section VI-A).
func BuildDistIndex(x *Extensions) *DistIndex {
	idx, _ := view.BuildDistIndex(context.Background(), x, 1) // never cancelled
	return idx
}

// NewMaintained materializes vs over g and keeps the extensions in sync
// under InsertEdge/DeleteEdge.
func NewMaintained(g *Graph, vs *ViewSet) *Maintained {
	m, _ := view.NewMaintained(context.Background(), g, vs, 1) // never cancelled
	return m
}

// NewFeed returns an empty change feed in front of m: Submit coalesces
// incoming updates, Flush applies the net batch in one propagation pass.
func NewFeed(m *Maintained) *Feed { return view.NewFeed(m) }

// Contains decides pattern containment Qs ⊑ V (Theorem 3 for plain
// patterns, Theorem 10 for bounded ones) and returns the edge mapping λ
// when it holds.
func Contains(q *Pattern, vs *ViewSet) (*Lambda, bool, error) {
	return core.Contain(context.Background(), q, vs, 1)
}

// MinimalViews finds a minimal subset of vs containing q (Theorem 5),
// returning the chosen view indices and λ restricted to them.
func MinimalViews(q *Pattern, vs *ViewSet) ([]int, *Lambda, bool, error) {
	return core.Minimal(q, vs)
}

// MinimumViews approximates the minimum containing subset within
// O(log |Ep|) (Theorem 6).
func MinimumViews(q *Pattern, vs *ViewSet) ([]int, *Lambda, bool, error) {
	return core.Minimum(q, vs)
}

// QueryContained decides classical query containment q1 ⊑ q2
// (Corollary 4: quadratic time).
func QueryContained(q1, q2 *Pattern) (bool, error) { return core.QueryContained(q1, q2) }

// MatchJoin evaluates q from extensions only, guided by λ (Fig. 2 of the
// paper; covers BMatchJoin for bounded patterns).
func MatchJoin(q *Pattern, x *Extensions, l *Lambda) (*Result, Stats) {
	res, st, _ := core.MatchJoin(context.Background(), q, x, l, 1) // never cancelled
	return res, st
}

// Answer computes Q(G) from materialized extensions only, selecting views
// per the strategy. It returns ErrNotContained when q ⋢ V.
func Answer(q *Pattern, x *Extensions, s Strategy) (*Result, []int, error) {
	res, idx, _, err := core.Answer(context.Background(), q, x, s, 1)
	return res, idx, err
}

// MinimizePattern merges mutually simulating pattern nodes, preserving
// match sets (query minimization, Section IV).
func MinimizePattern(q *Pattern) (*Pattern, []int) {
	m := pattern.Minimize(q)
	return m.P, m.NodeMap
}

// PartialAnswer is a maximally contained partial answer for a query that
// is not (necessarily) contained in the views.
type PartialAnswer = core.PartialAnswer

// AnswerPartial answers q as far as the views allow (§VIII future work:
// maximally contained rewriting): covered edges get sound upper-bound
// match sets; Exact is true when q ⊑ V and the result is exact.
func AnswerPartial(q *Pattern, x *Extensions) (*PartialAnswer, error) {
	return core.AnswerPartial(q, x)
}

// SelectViews picks a subset of candidate views sufficient to answer the
// whole query workload (§VIII future work: what to cache), by greedy set
// cover over all queries' edges. ok is false if even the full pool cannot
// cover some query.
func SelectViews(workload []*Pattern, candidates *ViewSet) (chosen []int, ok bool, err error) {
	return core.SelectViews(workload, candidates)
}

// MaterializeDual materializes views under dual simulation; answer with
// DualMatchJoin via DualContains (§VIII extension).
func MaterializeDual(g GraphReader, vs *ViewSet) *Extensions {
	x, _ := view.MaterializeDual(context.Background(), g, vs, 1) // never cancelled
	return x
}

// DualContains decides containment under dual simulation semantics
// (plain patterns only).
func DualContains(q *Pattern, vs *ViewSet) (*Lambda, bool, error) { return core.DualContain(q, vs) }

// DualMatchJoin answers q from dual-simulation extensions.
func DualMatchJoin(q *Pattern, x *Extensions, l *Lambda) (*Result, Stats) {
	return core.DualMatchJoin(q, x, l)
}
