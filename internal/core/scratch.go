package core

// Scratch is the reusable working state of the MatchJoin engines: the
// merged pair/distance buffers, the compressed-id table, the per-edge
// CSR indexes (offset arrays built by counting sort), alive and
// source/target bitsets, support and failure counters, and the kill
// worklist. Everything is carved from bump arenas reclaimed
// wholesale between queries, so a pooled engine answers repeated queries
// without allocating working state; only the Result (which outlives the
// call) is heap-allocated.
//
// Arenas are single-goroutine: the parallel seeding merges write into
// buffers carved before the fan-out, the per-SCC cascade phases read
// pre-built arrays or allocate from the heap, and all arena draws happen
// in the sequential phase boundaries between them.

import (
	"graphviews/internal/arena"
	"graphviews/internal/bitset"
	"graphviews/internal/graph"
	"graphviews/internal/simulation"
)

// kill records that node match (u, v) lost support and must cascade.
type kill struct {
	u int
	v graph.NodeID
}

// Scratch holds recyclable MatchJoin working state. The zero value is
// ready to use.
type Scratch struct {
	i32   arena.Arena[int32]
	words arena.Arena[uint64]
	pairs arena.Arena[simulation.Pair]
	ids   arena.Arena[graph.NodeID]
	kills []kill
}

// Reset reclaims the arenas for a new query.
func (sc *Scratch) Reset() {
	sc.i32.Reset()
	sc.words.Reset()
	sc.pairs.Reset()
	sc.ids.Reset()
}

// bits returns a cleared n-bit set from the word arena.
func (sc *Scratch) bits(n int) bitset.Set {
	return bitset.FromWords(sc.words.Make(bitset.Words(n)))
}

// takeKills returns the (empty) kill worklist; giveKills returns it so
// the grown capacity is kept for the next query.
func (sc *Scratch) takeKills() []kill { return sc.kills[:0] }
func (sc *Scratch) giveKills(k []kill) {
	if cap(k) > cap(sc.kills) {
		sc.kills = k
	}
}

// scratchPool recycles Scratches across every MatchJoin call (see
// arena.Pool), making the steady-state answer path allocation-free.
var scratchPool = arena.NewPool[Scratch]()
