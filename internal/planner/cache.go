package planner

import (
	"bytes"
	"sync"
	"sync/atomic"

	"orderopt/internal/plan"
)

// fifo is a bounded map that evicts in insertion order; both planner
// caches are one. Reads take an RWMutex read lock and perform one map
// probe — no allocation, so a cache hit stays flat under concurrency.
type fifo[K comparable, V any] struct {
	mu    sync.RWMutex
	max   int
	m     map[K]V
	order []K
}

func newFIFO[K comparable, V any](max int) *fifo[K, V] {
	return &fifo[K, V]{max: max, m: make(map[K]V)}
}

func (c *fifo[K, V]) get(k K) (V, bool) {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	return v, ok
}

// add stores v under k unless k is already present, evicting the oldest
// entries beyond max. It returns the value k now maps to and whether
// that is v: a concurrent writer that got there first keeps its entry.
func (c *fifo[K, V]) add(k K, v V) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[k]; ok {
		return old, false
	}
	for len(c.m) >= c.max && len(c.order) > 0 {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
	}
	c.m[k] = v
	c.order = append(c.order, k)
	return v, true
}

// Len returns the number of entries.
func (c *fifo[K, V]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// planCache maps a query fingerprint to its cached best plan. A hit
// is one fifo probe plus a canonical-bytes comparison (the collision
// guard).
type planCache struct {
	*fifo[uint64, *cacheEntry]
}

type cacheEntry struct {
	canon []byte     // canonical graph encoding: rules out fingerprint collisions
	best  *plan.Node // immutable; shared by every hit
	cost  float64
	// origin is the prepared query whose optimizer run produced best.
	// The tree's order annotations (Node.State, Node.SortOrd) are
	// handles into *that* query's interner and DFSM; fingerprint-equal
	// queries spelled differently get permuted handle spaces, so
	// consumers decoding the plan must decode through origin.
	origin *PreparedQuery
	// memo holds what consumers derive from best alone (Planned.Memo),
	// each slot written once; it goes when the entry is evicted.
	memo [memoSlots]atomic.Pointer[any]
}

// A MemoSlot names one value derived from a cached plan alone and kept
// on its plan-cache entry (Planned.Memo).
type MemoSlot uint8

const (
	// MemoShape is the executor's compiled shape of the plan.
	MemoShape MemoSlot = iota
	// MemoBlock is the serving layer's encoded plan block.
	MemoBlock
	memoSlots
)

// Memo returns the value build derives from pd.Best under slot. When pd
// came from the plan cache, or was stored there by this call, the first
// value built is kept on the cache entry and every later Planned of that
// entry returns it without calling build; concurrent first builders
// agree on one. Otherwise, and when build fails, nothing is kept. What
// build returns must depend on pd.Best and pd.Origin alone, and must not
// be modified afterwards.
func (pd Planned) Memo(slot MemoSlot, build func() (any, error)) (any, error) {
	e := pd.entry
	if e == nil {
		return build()
	}
	if v := e.memo[slot].Load(); v != nil {
		return *v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	if e.memo[slot].CompareAndSwap(nil, &v) {
		return v, nil
	}
	return *e.memo[slot].Load(), nil
}

func newPlanCache(max int) *planCache {
	return &planCache{newFIFO[uint64, *cacheEntry](max)}
}

func (c *planCache) lookup(fp uint64, canon []byte) (*cacheEntry, bool) {
	e, _ := c.get(fp)
	if e == nil || !bytes.Equal(e.canon, canon) {
		return nil, false
	}
	return e, true
}

// store caches best under fp unless a concurrent run cached it first, in
// which case the incumbent stays and store returns nil.
func (c *planCache) store(fp uint64, canon []byte, best *plan.Node, cost float64, origin *PreparedQuery) *cacheEntry {
	e := &cacheEntry{canon: canon, best: best, cost: cost, origin: origin}
	if _, added := c.add(fp, e); !added {
		return nil
	}
	return e
}
