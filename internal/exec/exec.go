// Package exec is a streaming Volcano-style execution engine over
// in-memory tables: scans, filters, sorts, merge/hash/nested-loop joins
// and grouping. It started as the repo's validation harness — the
// property tests run real tuple streams through operator pipelines and
// check that every logical ordering the DFSM framework claims (and
// every functional dependency it consumed) physically holds — and has
// grown into the measured execution backend behind the serving layer's
// /execute endpoint and the runtime sort-avoidance benchmark
// (BenchmarkExecRuntime).
//
// Operators are pipelined: a merge join buffers only the current
// duplicate-key group of its right input, a hash join materializes only
// its build side, and the grouping operators emit groups as the stream
// closes them. Only Sort (by nature) and the build/inner sides of
// hash/nested-loop joins materialize. The order guard rails remain:
// merge joins and sorted grouping verify their input ordering while
// streaming — an unsound ordering claim by the planner surfaces as an
// execution error, not a wrong result. See docs/execution.md for the
// operator matrix.
package exec

import (
	"cmp"
	"fmt"
	"slices"

	"orderopt/internal/query"
)

// Row is one tuple; values are int64 (strings are dictionary-coded by
// the data generators, dates are day numbers).
type Row []int64

// Iterator is the Volcano operator interface.
type Iterator interface {
	// Open prepares the iterator; it must be called before Next.
	Open() error
	// Next returns the next row, or ok=false at end of stream.
	Next() (row Row, ok bool, err error)
	// Close releases resources. Close after Open is mandatory; Close
	// without (or before) Open must be safe and is a no-op for the
	// operator's own inputs.
	Close() error
}

// batchIterator is implemented by operators that can hand out many
// rows at once (the exchange operators): Collect and the root stats
// wrapper then skip the per-row Next hand-off. A batch is only valid
// until the next NextBatch call.
type batchIterator interface {
	NextBatch() ([]Row, bool, error)
}

// sizeHinter optionally accompanies batchIterator: an estimate of the
// total row count, letting Collect presize its result buffer.
type sizeHinter interface {
	SizeHint() int
}

// Collect drains it and returns all rows.
func Collect(it Iterator) ([]Row, error) {
	defer it.Close() // before Open, so a panic inside Open closes too
	if err := it.Open(); err != nil {
		return nil, err
	}
	var out []Row
	if b, ok := it.(batchIterator); ok {
		if sh, ok := it.(sizeHinter); ok {
			if h := sh.SizeHint(); h > 0 && h <= 1<<22 {
				// Headroom over the estimate: a hint even 1% short would
				// otherwise double-and-copy the nearly full buffer on the
				// last few batches.
				out = make([]Row, 0, h+h/8+64)
			}
		}
		for {
			batch, ok, err := b.NextBatch()
			if err != nil {
				return nil, err
			}
			if !ok {
				return out, nil
			}
			out = append(out, batch...)
		}
	}
	for {
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, row)
	}
}

// drainInto opens it, feeds every row to f, and closes it — on success,
// on every error path, and when it or f panics: the one loop behind every
// operator that consumes an input whole inside its own Open.
func drainInto(it Iterator, f func(Row) error) (err error) {
	defer func() {
		if cerr := it.Close(); err == nil {
			err = cerr
		}
	}()
	if err := it.Open(); err != nil {
		return err
	}
	for {
		row, ok, err := it.Next()
		if err != nil || !ok {
			return err
		}
		if err := f(row); err != nil {
			return err
		}
	}
}

// Scan yields the given rows.
type Scan struct {
	Rows []Row
	pos  int
}

// NewScan returns a scan over rows.
func NewScan(rows []Row) *Scan { return &Scan{Rows: rows} }

// Open implements Iterator.
func (s *Scan) Open() error { s.pos = 0; return nil }

// Next implements Iterator.
func (s *Scan) Next() (Row, bool, error) {
	if s.pos >= len(s.Rows) {
		return nil, false, nil
	}
	r := s.Rows[s.pos]
	s.pos++
	return r, true, nil
}

// Close implements Iterator.
func (s *Scan) Close() error { return nil }

// runIterator is implemented by the scan operators, which hand out up
// to len(buf) rows per call instead of one per Next: a Scan straight
// from its slice, a Filter compacting its input's run into buf. An
// exchange pulls each morsel's driving scan through it (nextRun), so a
// morsel's rows reach the fused evaluator without a call per row.
type runIterator interface {
	nextRun(buf []Row) ([]Row, error)
}

// nextRun returns the next run of rows from it, at most len(buf) and
// none at the end of the stream: a runIterator's own run, otherwise (a
// hooked scan, say) rows pulled one Next at a time into buf.
func nextRun(it Iterator, buf []Row) ([]Row, error) {
	if r, ok := it.(runIterator); ok {
		return r.nextRun(buf)
	}
	for n := range buf {
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return buf[:n], nil
		}
		buf[n] = row
	}
	return buf, nil
}

func (s *Scan) nextRun(buf []Row) ([]Row, error) {
	run := s.Rows[s.pos:min(s.pos+len(buf), len(s.Rows))]
	s.pos += len(run)
	return run, nil
}

// Filter yields input rows satisfying Pred.
type Filter struct {
	In   Iterator
	Pred func(Row) bool
}

// Open implements Iterator.
func (f *Filter) Open() error { return f.In.Open() }

// Next implements Iterator.
func (f *Filter) Next() (Row, bool, error) {
	for {
		row, ok, err := f.In.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if f.Pred(row) {
			return row, true, nil
		}
	}
}

// Close implements Iterator.
func (f *Filter) Close() error { return f.In.Close() }

// nextRun compacts the passing rows of its input's runs into buf, in
// place when the input's run is buf itself.
func (f *Filter) nextRun(buf []Row) ([]Row, error) {
	for {
		in, err := nextRun(f.In, buf)
		if err != nil || len(in) == 0 {
			return nil, err
		}
		out := buf[:0]
		for _, row := range in {
			if f.Pred(row) {
				out = append(out, row)
			}
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

// Sort materializes its input and yields it ordered by Keys (ascending,
// stable). It is the only operator that inherently materializes its
// whole input — which is exactly why the order-optimization framework
// exists to avoid it. With a Life attached, every buffered row is
// charged against the query's budget as it arrives.
type Sort struct {
	In   Iterator
	Keys []int
	Life *Life

	rows []Row
	pos  int
}

// Open implements Iterator.
func (s *Sort) Open() error {
	var rows []Row
	if err := drainInto(s.In, func(row Row) error {
		if err := s.Life.holdRow(row); err != nil {
			return err
		}
		if len(rows) == cap(rows) {
			// Double exactly: append's 1.25x steps allocate about four
			// times the final run on the way to it, which is what pays
			// for sortRows' references.
			grown := make([]Row, len(rows), max(2*cap(rows), 64))
			copy(grown, rows)
			rows = grown
		}
		rows = append(rows, row)
		return nil
	}); err != nil {
		return err
	}
	sortRows(rows, s.Keys)
	s.rows = rows
	s.pos = 0
	return nil
}

// Next implements Iterator.
func (s *Sort) Next() (Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}

// Close implements Iterator.
func (s *Sort) Close() error { s.rows = nil; return nil }

func lessByKeys(a, b Row, keys []int) bool {
	for _, k := range keys {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

func compareByKeys(a, b Row, keys []int) int {
	for _, k := range keys {
		if a[k] != b[k] {
			return cmp.Compare(a[k], b[k])
		}
	}
	return 0
}

// sortRows stably sorts rows ascending on the key columns, in place: the
// one sort kernel behind Sort and the dataset's index views. It sorts 16-byte (first key, position) references rather than
// the rows — most comparisons are decided by the first key without
// touching a row — with the position as the last tie-break, which makes
// the unstable pdqsort stable; the rows are then permuted along the
// references' cycles.
func sortRows(rows []Row, keys []int) {
	if len(keys) == 0 || SatisfiesOrdering(rows, keys) {
		return
	}
	type ref struct {
		key int64
		idx int
	}
	refs := make([]ref, len(rows))
	for i, r := range rows {
		refs[i] = ref{key: r[keys[0]], idx: i}
	}
	rest := keys[1:]
	slices.SortFunc(refs, func(a, b ref) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		if c := compareByKeys(rows[a.idx], rows[b.idx], rest); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	// rows[i] must become the old rows[refs[i].idx]. Walk each cycle of
	// that permutation once, marking a slot done by pointing it at itself.
	for i := range refs {
		if refs[i].idx == i {
			continue
		}
		first := rows[i]
		j := i
		for {
			src := refs[j].idx
			refs[j].idx = j
			if src == i {
				rows[j] = first
				break
			}
			rows[j] = rows[src]
			j = src
		}
	}
}

// MergeJoin equi-joins two inputs sorted on their key columns; output
// rows are left ++ right (or the compiler's narrower layout, see
// joinEmit). Duplicate key groups produce the full cross product with
// the outer (left) order preserved — the ordering behaviour the plan
// generator relies on.
//
// The join is fully pipelined: it buffers only the current duplicate-key
// group of the right input (rewound per matching left row) and a
// one-row lookahead; both inputs are verified to be sorted as they
// stream, so an unsorted input fails at the Next that observes it.
type MergeJoin struct {
	Left, Right Iterator
	LeftKey     int
	RightKey    int
	// Life, when set, charges the buffered duplicate-key group against
	// the query budget (released as the group is replaced).
	Life *Life

	left       Row   // current left row, nil when a new one is needed
	group      []Row // current right duplicate-key group
	groupKey   int64
	haveGroup  bool
	gi         int  // cross-product cursor within group
	matching   bool // left's key equals groupKey
	groupBytes int64

	rightNext     Row // one-row lookahead into the right input
	rightDone     bool
	prevLeftKey   int64
	havePrevLeft  bool
	prevRightKey  int64
	havePrevRight bool
	opened        bool

	emit joinEmit
}

// Open implements Iterator.
func (m *MergeJoin) Open() error {
	// Set before either input opens: whoever called Open also calls
	// Close, which then closes both inputs however far Open got — an
	// error from Right.Open or a panic inside it included.
	m.opened = true
	if err := m.Left.Open(); err != nil {
		return err
	}
	if err := m.Right.Open(); err != nil {
		return err
	}
	m.left, m.group, m.haveGroup, m.gi, m.matching = nil, m.group[:0], false, 0, false
	m.Life.release(m.groupBytes)
	m.groupBytes = 0
	m.rightNext, m.rightDone = nil, false
	m.havePrevLeft, m.havePrevRight = false, false
	return nil
}

// nextLeft advances the left input, verifying sortedness on the fly.
func (m *MergeJoin) nextLeft() (Row, bool, error) {
	row, ok, err := m.Left.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	k := row[m.LeftKey]
	if m.havePrevLeft && k < m.prevLeftKey {
		return nil, false, fmt.Errorf("exec: merge join left input not sorted on column %d", m.LeftKey)
	}
	m.prevLeftKey, m.havePrevLeft = k, true
	return row, true, nil
}

// nextRight advances the right lookahead, verifying sortedness.
func (m *MergeJoin) nextRight() (Row, bool, error) {
	row, ok, err := m.Right.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	k := row[m.RightKey]
	if m.havePrevRight && k < m.prevRightKey {
		return nil, false, fmt.Errorf("exec: merge join right input not sorted on column %d", m.RightKey)
	}
	m.prevRightKey, m.havePrevRight = k, true
	return row, true, nil
}

// buildGroup loads the next duplicate-key group from the right input
// into m.group. It reports false when the right input is exhausted.
func (m *MergeJoin) buildGroup() (bool, error) {
	if m.rightNext == nil {
		if m.rightDone {
			return false, nil
		}
		row, ok, err := m.nextRight()
		if err != nil {
			return false, err
		}
		if !ok {
			m.rightDone = true
			return false, nil
		}
		m.rightNext = row
	}
	m.Life.release(m.groupBytes)
	m.groupBytes = 0
	m.group = m.group[:0]
	m.groupKey = m.rightNext[m.RightKey]
	if err := m.holdGroupRow(m.rightNext); err != nil {
		return false, err
	}
	m.group = append(m.group, m.rightNext)
	m.rightNext = nil
	for {
		row, ok, err := m.nextRight()
		if err != nil {
			return false, err
		}
		if !ok {
			m.rightDone = true
			break
		}
		if row[m.RightKey] != m.groupKey {
			m.rightNext = row
			break
		}
		if err := m.holdGroupRow(row); err != nil {
			return false, err
		}
		m.group = append(m.group, row)
	}
	m.haveGroup = true
	return true, nil
}

// holdGroupRow charges one buffered group row against the budget,
// tracking the group's total so it can be released when replaced.
func (m *MergeJoin) holdGroupRow(row Row) error {
	if m.Life == nil {
		return nil
	}
	if err := m.Life.holdRow(row); err != nil {
		return err
	}
	m.groupBytes += rowBytes(row)
	return nil
}

// Next implements Iterator.
func (m *MergeJoin) Next() (Row, bool, error) {
	for {
		if m.matching {
			for m.gi < len(m.group) {
				r, ok := m.emit.row(m.left, m.group[m.gi])
				m.gi++
				if ok {
					return r, true, nil
				}
			}
			// Cross product for this left row done; fetch the next left
			// row (it may share the key and rewind the group).
			m.matching = false
			m.left = nil
		}
		if m.left == nil {
			row, ok, err := m.nextLeft()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				// Left exhausted: drain the right side so its
				// sortedness check covers the full stream the plan
				// claimed sorted (mirror of the left drain below).
				for {
					_, ok, err := m.nextRight()
					if err != nil {
						return nil, false, err
					}
					if !ok {
						return nil, false, nil
					}
				}
			}
			m.left = row
		}
		lk := m.left[m.LeftKey]
		for !m.haveGroup || m.groupKey < lk {
			ok, err := m.buildGroup()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				// Right exhausted: no left row can match anymore, but
				// keep draining the left side so its sortedness check
				// still covers the full stream the plan claimed sorted.
				for {
					_, ok, err := m.nextLeft()
					if err != nil {
						return nil, false, err
					}
					if !ok {
						return nil, false, nil
					}
				}
			}
		}
		if m.groupKey == lk {
			m.gi = 0
			m.matching = true
			continue
		}
		// groupKey > lk: this left row has no partner.
		m.left = nil
	}
}

// Close implements Iterator.
func (m *MergeJoin) Close() error {
	m.Life.release(m.groupBytes)
	m.groupBytes = 0
	m.group, m.left, m.rightNext = nil, nil, nil
	m.haveGroup, m.matching = false, false
	if !m.opened {
		return nil
	}
	m.opened = false
	err := m.Left.Close()
	if err2 := m.Right.Close(); err == nil {
		err = err2
	}
	return err
}

// HashJoin builds a hash table on the right input and probes with the
// left, preserving the left (probe) order. Only the build side is
// materialized (the right input is drained and closed during Open, see
// buildHash); probing streams.
type HashJoin struct {
	Left, Right Iterator
	LeftKey     int
	RightKey    int
	// Life, when set, charges every build-side row against the query
	// budget as the table is built.
	Life *Life

	table  *hashView
	probe  Row   // current left row
	bucket []Row // its matches
	bi     int
	opened bool

	// adopted, when set, is the bare base-relation scan whose
	// dataset-resident build table (adopted.hash) Open adopts instead of
	// draining Right, which is then nil; Open credits the scan's stats
	// entry with the table's rows.
	adopted *bareScan

	emit joinEmit
}

// Open implements Iterator.
func (h *HashJoin) Open() error {
	if h.adopted != nil {
		h.table = h.adopted.hash
		h.adopted.st.Rows = int64(len(h.adopted.rows))
	} else {
		table, err := buildHash(h.Right, h.RightKey, h.Life.holdRow)
		if err != nil {
			return err
		}
		h.table = table
	}
	h.probe, h.bucket, h.bi = nil, nil, 0
	h.opened = true // before Left opens, so Close reaches it if Open does not return
	return h.Left.Open()
}

// Next implements Iterator.
func (h *HashJoin) Next() (Row, bool, error) {
	for {
		for h.bi < len(h.bucket) {
			r, ok := h.emit.row(h.probe, h.bucket[h.bi])
			h.bi++
			if ok {
				return r, true, nil
			}
		}
		left, ok, err := h.Left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		h.probe = left
		h.bucket = h.table.bucket(left[h.LeftKey])
		h.bi = 0
	}
}

// Close implements Iterator.
func (h *HashJoin) Close() error {
	h.table, h.probe, h.bucket = nil, nil, nil
	if h.opened {
		h.opened = false
		return h.Left.Close()
	}
	return nil
}

// NestedLoopJoin materializes the inner input and scans it per outer
// row, joining on an arbitrary predicate over (outer, inner). Matches
// are emitted lazily as the inner scan advances.
type NestedLoopJoin struct {
	Outer, Inner Iterator
	Pred         func(outer, inner Row) bool
	// Life, when set, charges the materialized inner input against the
	// query budget.
	Life *Life

	inner  []Row
	outer  Row
	ii     int
	opened bool

	emit joinEmit
}

// Open implements Iterator.
func (n *NestedLoopJoin) Open() error {
	var rows []Row
	if err := drainInto(n.Inner, func(row Row) error {
		if err := n.Life.holdRow(row); err != nil {
			return err
		}
		rows = append(rows, row)
		return nil
	}); err != nil {
		return err
	}
	n.inner, n.outer, n.ii = rows, nil, 0
	n.opened = true // before Outer opens, so Close reaches it if Open does not return
	return n.Outer.Open()
}

// Next implements Iterator.
func (n *NestedLoopJoin) Next() (Row, bool, error) {
	for {
		if n.outer != nil {
			for n.ii < len(n.inner) {
				inner := n.inner[n.ii]
				n.ii++
				if n.Pred(n.outer, inner) {
					if r, ok := n.emit.row(n.outer, inner); ok {
						return r, true, nil
					}
				}
			}
		}
		outer, ok, err := n.Outer.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		n.outer = outer
		n.ii = 0
	}
}

// Close implements Iterator.
func (n *NestedLoopJoin) Close() error {
	n.inner, n.outer = nil, nil
	if n.opened {
		n.opened = false
		return n.Outer.Close()
	}
	return nil
}

// joinEq is one equality predicate crossing a join: its columns,
// oriented to the join's sides, and their positions in the left and the
// right input's schema.
type joinEq struct {
	lc, rc query.ColumnRef
	l, r   int
}

// joinEmit is what a join does with a matched (left, right) pair: res
// lists the equalities its algorithm did not evaluate, checked on the
// pair before a row is carved; the row is left ++ right, or — narrow
// set by the compiler's liveness pass, see Runner.build — the live
// columns of each side at positions resolved at compile. The zero value
// is a join on its primary predicate alone emitting left ++ right.
type joinEmit struct {
	res          []joinEq
	narrow       bool
	lcols, rcols []int

	alloc rowAlloc // chunked allocator for output rows; a ring under a bounded hold
}

func (e *joinEmit) row(l, r Row) (Row, bool) {
	for _, q := range e.res {
		if l[q.l] != r[q.r] {
			return nil, false
		}
	}
	if !e.narrow {
		return e.alloc.concat(l, r), true
	}
	out := e.alloc.carve(len(e.lcols) + len(e.rcols))
	for i, c := range e.lcols {
		out[i] = l[c]
	}
	right := out[len(e.lcols):]
	for i, c := range e.rcols {
		right[i] = r[c]
	}
	return out, true
}

// rowAlloc chunk sizes (in int64s): chunks start small so short-lived
// operator instances (morsel pipelines) don't over-allocate, and grow
// geometrically so long streams amortize allocator round-trips.
const (
	rowAllocChunkMin = 512    // 4 KiB
	rowAllocChunkMax = 262144 // 2 MiB
)

// rowAlloc carves output rows from pointer-free chunks instead of
// allocating each row separately — join outputs dominate allocation
// count otherwise, and []int64 chunks cost the garbage collector
// nothing to scan. Not safe for concurrent use: each operator instance
// owns its allocator.
//
// With window 0 chunks are never recycled: rows stay valid after the
// allocator is gone, so consumers may keep them (a sort run, a build
// table, a collected result). With window > 0 the allocator is a ring:
// a row stays valid until window more rows have been carved, then it is
// overwritten. Chunks grow as before until one holds window rows, and
// that one is reused from its start, so a stream shorter than the
// window allocates exactly what it would unbounded. A ring's chunk
// holds rows of one width (a join's emit carves no other); a carve of
// another width starts a fresh chunk. Runner.build sets the window, and
// StreamContext the root join's.
type rowAlloc struct {
	buf    Row // the current chunk's uncarved tail
	chunk  Row // the current chunk, whole; reused when it holds window rows
	grow   int // next chunk size
	window int
	width  int // ring: the width of every row in chunk
}

// ensure makes the current chunk hold at least n more int64s: the
// ring's chunk rewound when it holds window rows of width n, otherwise
// a fresh (geometrically grown) chunk.
func (al *rowAlloc) ensure(n int) {
	if al.window > 0 && n != al.width {
		al.width, al.buf, al.chunk = n, nil, nil
	}
	if len(al.buf) >= n {
		return
	}
	if al.window > 0 && len(al.chunk) >= al.window*n {
		// Row i of the next lap overwrites row i of this one, which is
		// at least window carves old.
		al.buf = al.chunk
		return
	}
	switch {
	case al.grow == 0:
		al.grow = rowAllocChunkMin
	case al.grow < rowAllocChunkMax:
		al.grow <<= 1
	}
	sz := max(al.grow, n)
	if al.window > 0 {
		sz = min(sz, al.window*n)
	}
	al.chunk = make(Row, sz)
	al.buf = al.chunk
}

// carve returns one blank n-wide slice cut from the current chunk; the
// caller fills every column.
func (al *rowAlloc) carve(n int) Row {
	al.ensure(n)
	out := al.buf[:n:n]
	al.buf = al.buf[n:]
	return out
}

// concat returns a ++ b carved from the current chunk.
func (al *rowAlloc) concat(a, b Row) Row {
	out := al.carve(len(a) + len(b))
	copy(out, a)
	copy(out[len(a):], b)
	return out
}

// concatN returns pieces[0] ++ ... ++ pieces[len-1] (total width n)
// carved from the current chunk.
func (al *rowAlloc) concatN(pieces []Row, n int) Row {
	out := al.carve(n)
	o := 0
	for _, p := range pieces {
		copy(out[o:], p)
		o += len(p)
	}
	return out
}

// Agg selects the aggregate computed by the group operators.
type Agg uint8

const (
	// AggCount counts rows per group.
	AggCount Agg = iota
	// AggSum sums the input column per group.
	AggSum
	// AggMin keeps the minimum of the input column per group.
	AggMin
	// AggMax keeps the maximum of the input column per group.
	AggMax
	// AggAvg averages the input column per group (integer semantics:
	// sum/count, truncated toward zero).
	AggAvg
)

// AggSpec is one aggregate of a group operator's output: the function
// and its input column (ignored for AggCount). A group operator with no
// AggSpec computes the default single count(*).
type AggSpec struct {
	Fn  Agg
	Col int
}

// groupAcc is the shared per-group accumulator of the streaming group
// operators: one running value per aggregate plus the shared row count
// (count(*) and the divisor of avg).
type groupAcc struct {
	cur     Row
	accs    []int64
	count   int64
	started bool
}

func (g *groupAcc) start(row Row, specs []AggSpec) {
	g.cur = row
	g.started = true
	g.count = 1
	if cap(g.accs) < len(specs) {
		g.accs = make([]int64, len(specs))
	} else {
		g.accs = g.accs[:len(specs)]
	}
	for i, s := range specs {
		if s.Fn == AggCount {
			g.accs[i] = 0
		} else {
			g.accs[i] = row[s.Col]
		}
	}
}

func (g *groupAcc) add(row Row, specs []AggSpec) {
	g.count++
	for i, s := range specs {
		switch s.Fn {
		case AggSum, AggAvg:
			g.accs[i] += row[s.Col]
		case AggMin:
			if v := row[s.Col]; v < g.accs[i] {
				g.accs[i] = v
			}
		case AggMax:
			if v := row[s.Col]; v > g.accs[i] {
				g.accs[i] = v
			}
		}
	}
}

func (g *groupAcc) emit(keys []int, specs []AggSpec) Row {
	out := make(Row, 0, len(keys)+max(len(specs), 1))
	for _, k := range keys {
		out = append(out, g.cur[k])
	}
	if len(specs) == 0 {
		return append(out, g.count) // the default count(*)
	}
	for i, s := range specs {
		switch s.Fn {
		case AggCount:
			out = append(out, g.count)
		case AggAvg:
			out = append(out, g.accs[i]/g.count)
		default:
			out = append(out, g.accs[i])
		}
	}
	return out
}

// GroupSorted groups an input already sorted on Keys; output rows are
// the key values followed by the aggregate. It exploits (and preserves)
// the input ordering — the operator order optimization economizes for —
// and streams: one accumulator, groups emitted as the stream closes
// them.
type GroupSorted struct {
	In   Iterator
	Keys []int
	// Aggs lists the aggregates to compute (select-list order); empty
	// means count(*).
	Aggs []AggSpec

	g      groupAcc
	opened bool
	prev   Row // sortedness check
}

// Open implements Iterator.
func (g *GroupSorted) Open() error {
	g.g, g.prev = groupAcc{}, nil
	g.opened = true
	return g.In.Open()
}

// Next implements Iterator.
func (g *GroupSorted) Next() (Row, bool, error) {
	for {
		row, ok, err := g.In.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			if g.g.started {
				g.g.started = false
				return g.g.emit(g.Keys, g.Aggs), true, nil
			}
			return nil, false, nil
		}
		if g.prev != nil && lessByKeys(row, g.prev, g.Keys) {
			return nil, false, fmt.Errorf("exec: sorted grouping over unsorted input")
		}
		g.prev = row
		if g.g.started && sameKeys(g.g.cur, row, g.Keys) {
			g.g.add(row, g.Aggs)
			continue
		}
		if g.g.started {
			out := g.g.emit(g.Keys, g.Aggs)
			g.g.start(row, g.Aggs)
			return out, true, nil
		}
		g.g.start(row, g.Aggs)
	}
}

func sameKeys(a, b Row, keys []int) bool {
	for _, k := range keys {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// Close implements Iterator.
func (g *GroupSorted) Close() error {
	if g.opened {
		g.opened = false
		return g.In.Close()
	}
	return nil
}

// GroupHash groups by hashing; output order is unspecified (insertion
// order here for determinism, but callers must not rely on it — the
// plan generator models hash grouping as order-destroying). The table
// is built directly from the input stream with comparable int64-tuple
// keys; nothing is materialized besides the per-group accumulators.
type GroupHash struct {
	In   Iterator
	Keys []int
	// Aggs lists the aggregates to compute (select-list order); empty
	// means count(*).
	Aggs []AggSpec
	// Life, when set, charges every distinct group's accumulator (which
	// pins its first input row) against the query budget.
	Life *Life

	groups groupTable
	pos    int
	opened bool
}

// Open implements Iterator.
func (g *GroupHash) Open() error {
	g.opened = true // before In opens, so Close reaches it if Open does not return
	if err := g.In.Open(); err != nil {
		return err
	}
	g.groups = newGroupTable(len(g.Keys))
	g.pos = 0
	for {
		row, ok, err := g.In.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		acc, fresh := g.groups.lookup(row, g.Keys)
		if fresh {
			if err := g.Life.holdRow(row); err != nil {
				return err
			}
			acc.start(row, g.Aggs)
		} else {
			acc.add(row, g.Aggs)
		}
	}
}

// Next implements Iterator.
func (g *GroupHash) Next() (Row, bool, error) {
	accs := g.groups.order
	if g.pos >= len(accs) {
		return nil, false, nil
	}
	r := accs[g.pos].emit(g.Keys, g.Aggs)
	g.pos++
	return r, true, nil
}

// Close implements Iterator.
func (g *GroupHash) Close() error {
	g.groups = groupTable{}
	if g.opened {
		g.opened = false
		return g.In.Close()
	}
	return nil
}

// Limit yields at most N input rows, then stops pulling — the top-k
// early-out the limit-aware costing prices. On reaching the limit it
// quiesces the pipeline's Life so background producers (morsel workers
// feeding an exchange below) stop doing work that can no longer reach
// the output; quiescence is a graceful stop, not an abort, so the
// already-emitted prefix stays a successful result.
type Limit struct {
	In Iterator
	N  int64
	// Life, when set, is quiesced once the limit is reached.
	Life *Life

	n      int64
	opened bool
}

// Open implements Iterator.
func (l *Limit) Open() error {
	l.n = 0
	l.opened = true // before In opens, so Close reaches it if Open does not return
	return l.In.Open()
}

// Next implements Iterator.
func (l *Limit) Next() (Row, bool, error) {
	if l.n >= l.N {
		l.Life.quiesce()
		return nil, false, nil
	}
	row, ok, err := l.In.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.n++
	if l.n >= l.N {
		l.Life.quiesce()
	}
	return row, true, nil
}

// Close implements Iterator.
func (l *Limit) Close() error {
	if !l.opened {
		return nil
	}
	l.opened = false
	return l.In.Close()
}

// SatisfiesOrdering reports whether the row stream satisfies the logical
// ordering given by the column sequence — the §2 condition: rows are
// non-decreasing lexicographically on the columns.
func SatisfiesOrdering(rows []Row, cols []int) bool {
	for i := 1; i < len(rows); i++ {
		if lessByKeys(rows[i], rows[i-1], cols) {
			return false
		}
	}
	return true
}
