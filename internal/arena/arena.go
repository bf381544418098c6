// Package arena provides the bump allocator behind the pooled engine
// scratch state. An Arena hands out zeroed sub-slices of one backing
// block; Reset reclaims everything at once, so a pooled scratch reaches a
// steady state where repeated queries allocate nothing — the working
// state of a fixpoint (bitset rows, support counters, CSR offset arrays)
// is carved out of recycled memory instead of churning the GC.
//
// Arenas are single-goroutine: parallel phases either pre-allocate from
// the arena before fanning out or fall back to the heap. Slices handed
// out by Make are valid until the next Reset and must never escape into
// results that outlive the query.
package arena

// Arena is a typed bump allocator. The zero value is ready to use.
type Arena[T any] struct {
	block []T // current backing block
	off   int // bump offset into block
	need  int // total elements requested this cycle (high-water mark)
}

// Make returns a zeroed slice of n elements carved from the arena. The
// slice has capacity exactly n, so appends never bleed into neighboring
// allocations. When the current block is exhausted mid-cycle, a larger
// block sized to the cycle's running total is allocated; outstanding
// slices keep referencing the old block and stay valid.
func (a *Arena[T]) Make(n int) []T {
	s := a.MakeDirty(n)
	clear(s)
	return s
}

// MakeDirty is Make without the zeroing, for buffers the caller fully
// overwrites (counting-sort fill arrays, worklists). The contents are
// unspecified.
func (a *Arena[T]) MakeDirty(n int) []T {
	a.need += n
	if a.off+n > len(a.block) {
		size := max(2*len(a.block), a.need, 64)
		a.block = make([]T, size)
		a.off = 0
	}
	s := a.block[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// Reset reclaims every allocation at once. Previously handed-out slices
// become invalid (they will be recycled by subsequent Makes).
func (a *Arena[T]) Reset() {
	a.off = 0
	a.need = 0
}

// Cap returns the capacity of the current backing block, for tests.
func (a *Arena[T]) Cap() int { return len(a.block) }
