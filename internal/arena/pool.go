package arena

import "sync"

// Resettable is implemented by scratch states that can be wiped for
// reuse (arena Reset + any per-query bookkeeping).
type Resettable interface{ Reset() }

// Pool is a sync.Pool of scratch states shared by the engine packages:
// Get hands out a freshly Reset scratch, Put returns it for reuse.
type Pool[T any, PT interface {
	*T
	Resettable
}] struct {
	p sync.Pool
}

// NewPool returns an empty pool.
func NewPool[T any, PT interface {
	*T
	Resettable
}]() *Pool[T, PT] {
	return &Pool[T, PT]{p: sync.Pool{New: func() any { return PT(new(T)) }}}
}

// Get returns a Reset scratch.
func (sp *Pool[T, PT]) Get() PT {
	sc := sp.p.Get().(PT)
	sc.Reset()
	return sc
}

// Put returns a scratch to the pool. The caller must not retain
// references into the scratch past Put.
func (sp *Pool[T, PT]) Put(sc PT) {
	sp.p.Put(sc)
}
