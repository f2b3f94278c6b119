package planner

import (
	"sync"
)

// statements is the prepared-statement cache: a bounded map from SQL
// text that evicts in insertion order — the workloads this repo serves
// are steady sets of repeated queries, where recency tracking buys
// nothing over insertion order. Reads take an RWMutex read lock and
// perform one map probe — no allocation, so a hit stays flat under
// concurrency.
type statements struct {
	mu    sync.RWMutex
	max   int
	m     map[string]*PreparedQuery
	order []string
}

func newStatements(max int) *statements {
	return &statements{max: max, m: make(map[string]*PreparedQuery)}
}

func (c *statements) get(sql string) (*PreparedQuery, bool) {
	c.mu.RLock()
	q, ok := c.m[sql]
	c.mu.RUnlock()
	return q, ok
}

// add stores q under sql unless sql is already present, evicting the
// oldest statements beyond max; an evicted statement takes its stored
// plan and memo with it. It returns the statement sql now maps to and
// whether that is q: a concurrent writer that got there first keeps its
// statement.
func (c *statements) add(sql string, q *PreparedQuery) (*PreparedQuery, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[sql]; ok {
		return old, false
	}
	for len(c.m) >= c.max && len(c.order) > 0 {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
	}
	c.m[sql] = q
	c.order = append(c.order, sql)
	return q, true
}

// counts returns the number of cached statements and how many of them
// hold a plan.
func (c *statements) counts() (entries, planned int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, q := range c.m {
		if q.best.Load() != nil {
			planned++
		}
	}
	return len(c.m), planned
}
