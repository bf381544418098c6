package simulation

// Scratch is the reusable working state of the simulation engines: bitset
// membership rows, flat support-counter arrays, removal worklists and BFS
// buffers, all carved from bump arenas that are reclaimed wholesale
// between queries. A warmed Scratch lets repeated materializations on
// same-sized graphs run without allocating working state; only the
// Result (which outlives the call) is heap-allocated.
//
// A Scratch serves one query at a time and must be reset between
// queries: scratchPool.Get hands out reset scratches, and multi-query
// loops over one scratch (strong simulation's per-ball evaluation) call
// reset directly. The pool makes a set of them safe to share across
// concurrent queries.

import (
	"graphviews/internal/arena"
	"graphviews/internal/bitset"
	"graphviews/internal/graph"
)

// removal is one worklist entry: node match (u, v) left sim(u).
type removal struct {
	u int
	v graph.NodeID
}

// Scratch holds recyclable engine working state. The zero value is ready
// to use.
type Scratch struct {
	words arena.Arena[uint64]
	i32   arena.Arena[int32]
	work  []removal
	queue []int
	dirty []bool
	bfs   *graph.BFS
	// pairBuf accumulates one edge's match pairs during result assembly;
	// the exact-size copy that ends up in the Result never aliases it.
	pairBuf []Pair
}

// Reset reclaims the arenas for a new query. Worklist and BFS buffers
// keep their grown capacity.
func (sc *Scratch) Reset() {
	sc.words.Reset()
	sc.i32.Reset()
}

// matrix returns a cleared rows×cols bit matrix from the word arena.
func (sc *Scratch) matrix(rows, cols int) *bitset.Matrix {
	return bitset.MatrixOver(rows, cols, sc.words.Make(bitset.MatrixWords(rows, cols)))
}

// counters returns a zeroed int32 array from the arena.
func (sc *Scratch) counters(n int) []int32 { return sc.i32.Make(n) }

// buffer returns an uninitialized int32 array from the arena.
func (sc *Scratch) buffer(n int) []int32 { return sc.i32.MakeDirty(n) }

// takeWork returns the (empty) removal worklist; giveWork returns it so
// the grown capacity is kept for the next query.
func (sc *Scratch) takeWork() []removal { return sc.work[:0] }
func (sc *Scratch) giveWork(w []removal) {
	if cap(w) > cap(sc.work) {
		sc.work = w
	}
}

// edgeQueue returns the (empty) dirty-edge queue and flag array, sized
// for ne pattern edges. The queue may be regrown by the caller; only its
// initial capacity is recycled.
func (sc *Scratch) edgeQueue(ne int) ([]int, []bool) {
	if cap(sc.queue) < ne {
		sc.queue = make([]int, 0, ne)
	}
	if cap(sc.dirty) < ne {
		sc.dirty = make([]bool, ne)
	}
	d := sc.dirty[:ne]
	clear(d)
	return sc.queue[:0], d
}

// assembleEdge collects the match pairs of one plain edge — the sources
// list crossed with adjacency, filtered by the target membership row —
// into the reusable pair buffer, then copies them into exactly-sized
// fresh slices with unit distances. Sources ascend and adjacency is
// sorted, so the pairs come out strictly ascending (canonical form, no
// normalization pass needed beyond the caller's).
func (sc *Scratch) assembleEdge(g graph.Reader, srcs []graph.NodeID, dst bitset.Set, em *EdgeMatches) {
	buf := sc.pairBuf[:0]
	for _, v := range srcs {
		for _, w := range g.Out(v) {
			if dst.Get(int(w)) {
				buf = append(buf, Pair{v, w})
			}
		}
	}
	sc.pairBuf = buf
	em.Pairs = make([]Pair, len(buf))
	copy(em.Pairs, buf)
	em.Dists = make([]int32, len(buf))
	for i := range em.Dists {
		em.Dists[i] = 1
	}
}

// bfsScratch returns the reusable BFS buffer, sized for n nodes.
func (sc *Scratch) bfsScratch(n int) *graph.BFS {
	if sc.bfs == nil {
		sc.bfs = graph.NewBFS(n)
	}
	return sc.bfs
}

// scratchPool recycles Scratches across materializations
// (SimulateFromSeeds, SimulateDualFromSeeds; see arena.Pool).
var scratchPool = arena.NewPool[Scratch]()
