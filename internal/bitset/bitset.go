// Package bitset provides the dense, word-parallel membership kernels of
// the answer pipeline. A Set packs one bit per node id into []uint64
// words, so the inner-loop membership probes of the simulation and
// MatchJoin fixpoints touch 8× less memory than the former []bool rows
// (64× less than map-backed sets), and whole-set operations (union,
// intersection, difference, population count) run a word at a time. A
// Matrix carries one row per pattern node over a single flat allocation,
// which the pooled scratch arenas recycle across queries.
package bitset

import "math/bits"

const wordBits = 64

// Words returns the number of uint64 words needed for n bits.
func Words(n int) int { return (n + wordBits - 1) / wordBits }

// Set is a fixed-capacity bit set over [0, 64·len(s)). The zero value is
// an empty set of capacity 0; use New or FromWords to size it.
type Set []uint64

// New returns a set with capacity for n bits, all clear.
func New(n int) Set { return make(Set, Words(n)) }

// FromWords wraps an existing word slice (e.g. an arena block) as a Set.
// The words are used as-is; callers wanting an empty set must Reset it.
func FromWords(w []uint64) Set { return Set(w) }

// Get reports whether bit i is set.
func (s Set) Get(i int) bool {
	return s[uint(i)/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set sets bit i.
func (s Set) Set(i int) {
	s[uint(i)/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i.
func (s Set) Clear(i int) {
	s[uint(i)/wordBits] &^= 1 << (uint(i) % wordBits)
}

// TestAndSet sets bit i and reports whether it was previously clear.
func (s Set) TestAndSet(i int) bool {
	w, m := uint(i)/wordBits, uint64(1)<<(uint(i)%wordBits)
	old := s[w]
	s[w] = old | m
	return old&m == 0
}

// TestAndClear clears bit i and reports whether it was previously set.
func (s Set) TestAndClear(i int) bool {
	w, m := uint(i)/wordBits, uint64(1)<<(uint(i)%wordBits)
	old := s[w]
	s[w] = old &^ m
	return old&m != 0
}

// SetFirst sets bits [0, n) and clears any remaining bits, initializing
// an "all alive" set of population n in O(words).
func (s Set) SetFirst(n int) {
	full := n / wordBits
	for i := 0; i < full; i++ {
		s[i] = ^uint64(0)
	}
	rest := full
	if rem := n % wordBits; rem != 0 {
		s[full] = 1<<rem - 1
		rest++
	}
	for i := rest; i < len(s); i++ {
		s[i] = 0
	}
}

// Count returns the number of set bits.
func (s Set) Count() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (s Set) Any() bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// Reset clears every bit.
func (s Set) Reset() {
	clear(s)
}

// And intersects s with o in place (s &= o). Lengths must match.
func (s Set) And(o Set) {
	for i := range s {
		s[i] &= o[i]
	}
}

// Or unions o into s in place (s |= o). Lengths must match.
func (s Set) Or(o Set) {
	for i := range s {
		s[i] |= o[i]
	}
}

// AndNot removes o's bits from s in place (s &^= o). Lengths must match.
func (s Set) AndNot(o Set) {
	for i := range s {
		s[i] &^= o[i]
	}
}

// CopyFrom overwrites s with o. Lengths must match.
func (s Set) CopyFrom(o Set) {
	copy(s, o)
}

// Iterate calls fn for every set bit in ascending order, stopping early if
// fn returns false. The word-at-a-time scan with trailing-zero extraction
// makes sparse iteration proportional to the population count, not the
// capacity.
func (s Set) Iterate(fn func(i int) bool) {
	for wi, w := range s {
		base := wi * wordBits
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(base + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Matrix is a dense rows×cols bit matrix over one flat word slice: one
// row per pattern node, one column per graph node. Rows share a stride so
// the whole working state is a single (arena-recyclable) allocation.
type Matrix struct {
	stride int // words per row
	rows   int
	bits   []uint64
}

// NewMatrix returns a rows×cols matrix, all clear.
func NewMatrix(rows, cols int) *Matrix {
	s := Words(cols)
	return &Matrix{stride: s, rows: rows, bits: make([]uint64, rows*s)}
}

// MatrixOver wraps words (e.g. an arena block of Words(cols)·rows words)
// as a rows×cols matrix. The words are used as-is.
func MatrixOver(rows, cols int, words []uint64) *Matrix {
	return &Matrix{stride: Words(cols), rows: rows, bits: words}
}

// MatrixWords returns the word count backing a rows×cols matrix.
func MatrixWords(rows, cols int) int { return rows * Words(cols) }

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Row returns row r as a Set sharing the matrix storage.
func (m *Matrix) Row(r int) Set {
	return Set(m.bits[r*m.stride : (r+1)*m.stride])
}

// Get reports bit (r, c).
func (m *Matrix) Get(r, c int) bool { return m.Row(r).Get(c) }

// Set sets bit (r, c).
func (m *Matrix) Set(r, c int) { m.Row(r).Set(c) }

// Clear clears bit (r, c).
func (m *Matrix) Clear(r, c int) { m.Row(r).Clear(c) }

// Reset clears the whole matrix.
func (m *Matrix) Reset() { clear(m.bits) }
