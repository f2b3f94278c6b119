// Package exec is a streaming, pull-based execution engine over
// in-memory tables: scans (which apply their relation's constant
// predicates), sorts, merge/hash/nested-loop joins and grouping. It
// started as the repo's validation harness — the property tests run
// real tuple streams through operator pipelines and check that every
// logical ordering the DFSM framework claims (and every functional
// dependency it consumed) physically holds — and has grown into the
// measured execution backend behind the serving layer's /execute
// endpoint and the runtime sort-avoidance benchmark
// (BenchmarkExecRuntime).
//
// Operators are iterators, except joins: every left-deep chain of joins
// runs as one cursor over its driving input (spine.go), which builds a
// row only for the chain's output. Everything is pipelined: a merge
// join buffers only the current duplicate-key group of its right input,
// a hash join materializes only its build side, and the grouping
// operators emit groups as the stream closes them. Only Sort (by
// nature) and the build/inner sides of hash/nested-loop joins
// materialize. The order guard rails remain: merge joins and sorted
// grouping verify their input ordering while streaming — an unsound
// ordering claim by the planner surfaces as an execution error, not a
// wrong result. See docs/execution.md for the operator matrix.
//
// Each operator counts the rows it hands out into its own OpStats entry
// (countRows), and cancellation is polled where rows start: the scans,
// the spines' cursors and the root's chunk loop. A timing runner puts
// every other operator (a spine, under its top join) under a stats
// wrapper that only times it (statsIter).
package exec

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"orderopt/internal/freelist"
	"orderopt/internal/query"
)

// Row is one tuple; values are int64 (strings are dictionary-coded by
// the data generators, dates are day numbers).
type Row []int64

// Iterator is the operator interface: Open, a Next per row, Close.
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

// collect drains it and returns all rows.
func collect(it Iterator) (out []Row, err error) {
	if err := drainInto(it, func(row Row) error { out = append(out, row); return nil }); err != nil {
		return nil, err
	}
	return out, nil
}

// drainInto opens it, feeds every row to f, and closes it — on success,
// on every error path, and when it or f panics: the one loop behind
// collect and every operator that consumes an input whole in its Open.
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

// countRows is the one counting rule: every operator counts the rows it
// hands out and, at Close, adds them to its stats entry st, when it has
// one, in one atomic add, since an exchange's morsel scans and spine
// levels share their entries between workers.
func countRows(st *OpStats, n int64) {
	if st != nil {
		atomic.AddInt64(&st.Rows, n)
	}
}

// scan is the one scan operator, serial and per exchange morsel: it
// streams rows (a table, an index's maintained view, or one morsel of
// either) and hands out those pred keeps (the relation's constant
// predicates; nil keeps every row). It counts the rows it hands out
// (countRows) and reports no time of its own, which is inside its
// consumer's entry. It polls life every
// CancelCheckInterval rows it reads, kept or not: a dead Life fails the
// scan, and a quiesced one ends it, since no row past that point can be
// observed.
type scan struct {
	rows []Row
	pred func(Row) bool
	st   *OpStats
	life *Life
	pos  int
	n    int64 // rows handed out since the last Close
}

// NewScan returns a scan over rows that hands out the rows pred keeps;
// a nil pred keeps every row.
func NewScan(rows []Row, pred func(Row) bool) Iterator {
	return &scan{rows: rows, pred: pred}
}

// Open implements Iterator.
func (s *scan) Open() error { s.pos = 0; return nil }

// Next implements Iterator.
func (s *scan) Next() (Row, bool, error) {
	for s.pos < len(s.rows) {
		row := s.rows[s.pos]
		if s.pos++; s.pos&(CancelCheckInterval-1) == 0 {
			if err := s.life.Err(); err != nil || s.life.drained() {
				return nil, false, err
			}
		}
		if s.pred == nil || s.pred(row) {
			s.n++
			return row, true, nil
		}
	}
	return nil, false, nil
}

// Close implements Iterator.
func (s *scan) Close() error {
	countRows(s.st, s.n)
	s.n = 0
	return nil
}

// Sort materializes its input and yields it ordered by Keys (ascending,
// stable). It is the only operator that inherently materializes its
// whole input — which is exactly why the order-optimization framework
// exists to avoid it. Its run is a rowBuf, charged to the Life as it
// doubles. Its run buffer and sort scratch come from sortPool and go
// back, cleared, at Close.
type Sort struct {
	In   Iterator
	Keys []int
	Life *Life

	st   *OpStats // counted into at Close, when set
	bufs *sortBufs
	rows []Row
	pos  int
}

// sortBufs are one Sort's recycled arrays: the run it drains its input
// into, and the counting sort's scratch.
type sortBufs struct {
	run []Row
	sortScratch
}

var sortPool freelist.List[sortBufs]

// Open implements Iterator.
func (s *Sort) Open() error {
	if s.bufs == nil {
		s.bufs = sortPool.Get()
	}
	b := s.bufs
	run := rowBuf{rows: b.run[:0]}
	err := drainInto(s.In, func(row Row) error { return run.append(s.Life, row) })
	b.run = run.rows // for Close to clear, however far the drain got
	if err != nil {
		return err
	}
	sortRows(b.run, s.Keys, &b.sortScratch)
	s.rows = b.run
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

// Close implements Iterator: the run goes back to sortPool pinning no
// row.
func (s *Sort) Close() error {
	if b := s.bufs; b != nil {
		countRows(s.st, int64(s.pos))
		s.pos = 0
		clear(b.run) // sortRows clears tmp as soon as it is done with it
		b.run, b.tmp = b.run[:0], b.tmp[:0]
		sortPool.Put(b)
		s.bufs = nil
	}
	s.rows = nil
	return nil
}

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

// buckets maps int64 keys to consecutive buckets and holds the bucket
// boundaries: bucket i is [off[i], off[i+1]), and a key's bucket is
// k-min over a dense key domain (keys empty) or k's position among the
// sorted distinct keys. It is the index of the one stable counting sort
// (scatter), which orders both Sort's runs and every hash-join build
// table.
type buckets struct {
	keys []int64
	min  int64
	off  []int32
}

// slot returns the index of key k's bucket, -1 for none.
func (b *buckets) slot(k int64) int {
	if len(b.keys) > 0 {
		if i, ok := slices.BinarySearch(b.keys, k); ok {
			return i
		}
	} else if i := k - b.min; i >= 0 && i < int64(len(b.off))-1 {
		return int(i)
	}
	return -1
}

// keySpan returns the smallest key on column col and the bucket count
// of the direct-address domain from it to the largest, and whether that
// domain is dense: at most 4n+16 buckets for n rows (a span that
// overflows int64 is not). No rows is dense, with no buckets.
func keySpan(rows []Row, col int) (lo, buckets int64, dense bool) {
	if len(rows) == 0 {
		return 0, 0, true
	}
	lo = rows[0][col]
	hi := lo
	for _, row := range rows[1:] {
		if k := row[col]; k < lo {
			lo = k
		} else if k > hi {
			hi = k
		}
	}
	buckets = hi - lo + 1
	return lo, buckets, buckets > 0 && buckets <= 4*int64(len(rows))+16
}

// scatter is the one stable counting sort: it writes src into dst (of
// the same length) bucket after bucket by their key on column col,
// equal keys in src order. b.off must come zeroed, one entry per bucket
// plus one; it leaves holding each bucket's start, and off[len-1] = n.
func (b *buckets) scatter(dst, src []Row, col int) {
	for _, row := range src {
		b.off[b.slot(row[col])]++
	}
	var sum int32
	for i, c := range b.off {
		sum += c
		b.off[i] = sum
	}
	// Back to front, so equal keys keep their order: off[i] is bucket
	// i's end and is walked down to its start as the rows land.
	for j := len(src) - 1; j >= 0; j-- {
		i := b.slot(src[j][col])
		b.off[i]--
		dst[b.off[i]] = src[j]
	}
}

// zeroedOffsets returns off resized to n zeroed bucket boundaries,
// reusing its array when it is large enough.
func zeroedOffsets(off []int32, n int) []int32 {
	off = slices.Grow(off[:0], n)[:n]
	clear(off)
	return off
}

// sortScratch is the arrays sortRows scatters through; a nil one is
// allocated per call.
type sortScratch struct {
	tmp []Row
	off []int32
}

// sortRows stably sorts rows ascending on the key columns, in place: the
// one sort kernel behind Sort and the dataset's index views. A dense
// leading key (keySpan) is counting-sorted — the scatter shared with
// the hash build — and each run of equal leading keys is then sorted on
// the remaining keys the same way, which keeps the whole sort stable. A
// sparse one falls back to pdqsort over 16-byte (first key, position)
// references rather than the rows — most comparisons are decided by the
// first key without touching a row — with the position as the last
// tie-break, which makes the unstable pdqsort stable; the rows are then
// permuted along the references' cycles. Either way the result is the
// one permutation a stable sort gives.
func sortRows(rows []Row, keys []int, sc *sortScratch) {
	if len(keys) == 0 || SatisfiesOrdering(rows, keys) {
		return
	}
	col := keys[0]
	lo, n, dense := keySpan(rows, col)
	if !dense {
		sortRefs(rows, keys)
		return
	}
	if sc == nil {
		sc = &sortScratch{}
	}
	b := buckets{min: lo, off: zeroedOffsets(sc.off, int(n)+1)}
	sc.tmp = append(sc.tmp[:0], rows...)
	b.scatter(rows, sc.tmp, col)
	clear(sc.tmp)
	sc.off = b.off
	if rest := keys[1:]; len(rest) > 0 {
		for i := 0; i < len(rows); {
			j := i + 1
			for j < len(rows) && rows[j][col] == rows[i][col] {
				j++
			}
			if j-i > 1 {
				sortRows(rows[i:j], rest, sc)
			}
			i = j
		}
	}
}

// sortRefs is sortRows' pdqsort for a sparse leading key.
func sortRefs(rows []Row, keys []int) {
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

// joinEq is one equality predicate crossing a join, its columns oriented
// to the join's sides.
type joinEq struct {
	lc, rc query.ColumnRef
}

// rowAlloc chunk sizes (in int64s): chunks start small so short-lived
// operator instances (morsel pipelines) don't over-allocate, and grow
// geometrically so long streams amortize allocator round-trips.
const (
	rowAllocChunkMin = 512    // 4 KiB
	rowAllocChunkMax = 262144 // 2 MiB
)

// chunkPools[c] holds idle *rowChunks of rowAllocChunkMin<<c int64s,
// not zeroed: carve's caller fills every column.
var chunkPools [10]freelist.List[rowChunk] // rowAllocChunkMin<<9 == rowAllocChunkMax

type rowChunk struct{ buf Row }

// PoisonRecycledChunks makes recycle overwrite every chunk it hands back,
// so a test sees any row read after its pipeline recycled it.
var PoisonRecycledChunks atomic.Bool

// rowAlloc carves output rows from pointer-free chunks instead of
// allocating each row separately — join outputs dominate allocation
// count otherwise, and []int64 chunks cost the garbage collector
// nothing to scan. Not safe for concurrent use: each operator instance
// owns its allocator.
//
// With window 0 rows stay valid until a pooled allocator is recycled,
// so consumers may keep them (a sort run, a build table, a collected
// result). With window > 0 the allocator is a ring: a row stays valid
// until window more rows have been carved, then it is overwritten.
// Chunks grow as before until one holds window rows, and that one is
// reused from its start, so a stream shorter than the window allocates
// exactly what it would unbounded. A ring's chunk holds rows of one
// width (a spine emits no other); a carve of another width starts a
// fresh chunk. Runner.build sets window, pooled and life, and
// StreamContext the root spine's window.
type rowAlloc struct {
	chunk  Row // the current chunk, whole; reused when it holds window rows
	off    int // chunk[:off] is carved: an offset, so a carve stores no pointer
	grow   int // next chunk size
	window int
	width  int32       // ring: the width of every row in chunk
	pooled bool        // chunks come from chunkPools, and go back at Life.releaseAll
	taken  []*rowChunk // pooled: the chunks to hand back
	life   *Life       // charged for each chunk as it is taken
	took   int64       // the bytes of every chunk taken, charged or not
}

// ensure makes the current chunk hold at least n more int64s: the
// ring's chunk rewound when it holds window rows of width n, otherwise
// a fresh (geometrically grown) chunk, charged to life whole — a pooled
// one at its size class. A chunk life refuses is not taken.
func (al *rowAlloc) ensure(n int) error {
	if al.window > 0 && int32(n) != al.width {
		al.width, al.chunk, al.off = int32(n), nil, 0
	}
	if len(al.chunk)-al.off >= n {
		return nil
	}
	if al.window > 0 && len(al.chunk) >= al.window*n {
		// Row i of the next lap overwrites row i of this one, which is
		// at least window carves old.
		al.off = 0
		return nil
	}
	grow := rowAllocChunkMin
	if al.grow > 0 {
		grow = min(2*al.grow, rowAllocChunkMax)
	}
	sz := max(grow, n)
	if al.window > 0 {
		sz = min(sz, al.window*n)
	}
	c := max(bits.Len(uint(sz-1))-bits.Len(rowAllocChunkMin-1), 0)
	pooled := al.pooled && c < len(chunkPools)
	bytes := 8 * int64(sz)
	if pooled {
		bytes = 8 * int64(rowAllocChunkMin<<c)
	}
	if err := al.life.hold(bytes); err != nil {
		return err
	}
	al.grow, al.off, al.took = grow, 0, al.took+bytes
	if !pooled {
		al.chunk = make(Row, sz)
		return nil
	}
	ch := chunkPools[c].Get()
	if ch.buf == nil {
		ch.buf = make(Row, rowAllocChunkMin<<c)
	}
	al.taken = append(al.taken, ch)
	al.chunk = ch.buf[:sz]
	return nil
}

// recycle hands the chunks back and starts the allocator over.
func (al *rowAlloc) recycle() {
	for _, ch := range al.taken {
		if PoisonRecycledChunks.Load() {
			for i := range ch.buf {
				ch.buf[i] = -0x0badc0de0badc0de
			}
		}
		chunkPools[bits.Len(uint(len(ch.buf)))-bits.Len(rowAllocChunkMin)].Put(ch)
	}
	clear(al.taken)
	*al = rowAlloc{window: al.window, pooled: true, taken: al.taken[:0], life: al.life}
}

// carve returns one blank n-wide slice cut from the current chunk; the
// caller fills every column. Its error is ensure's.
func (al *rowAlloc) carve(n int) (Row, error) {
	if err := al.ensure(n); err != nil {
		return nil, err
	}
	out := al.chunk[al.off : al.off+n : al.off+n]
	al.off += n
	return out, nil
}

// concatN returns pieces[0] ++ ... ++ pieces[len-1] (total width n)
// carved from the current chunk.
func (al *rowAlloc) concatN(pieces []Row, n int) (Row, error) {
	out, err := al.carve(n)
	if err != nil {
		return nil, err
	}
	o := 0
	for _, p := range pieces {
		copy(out[o:], p)
		o += len(p)
	}
	return out, nil
}

// AggSpec is one aggregate of a group operator's output: the function
// and its input column (ignored for query.AggCount). A group operator
// with no AggSpec computes the default single count(*).
type AggSpec struct {
	Fn  query.AggFn
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
		if s.Fn == query.AggCount {
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
		case query.AggSum, query.AggAvg:
			g.accs[i] += row[s.Col]
		case query.AggMin:
			if v := row[s.Col]; v < g.accs[i] {
				g.accs[i] = v
			}
		case query.AggMax:
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
		case query.AggCount:
			out = append(out, g.count)
		case query.AggAvg:
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
// them. It keeps no input row.
type GroupSorted struct {
	In   Iterator
	Keys []int
	// Aggs lists the aggregates to compute (select-list order); empty
	// means count(*).
	Aggs []AggSpec

	st     *OpStats // counted into at Close, when set
	n      int64    // groups handed out since the last Close
	g      groupAcc // g.cur is a copy of the group's first row
	opened bool
}

// Open implements Iterator.
func (g *GroupSorted) Open() error {
	g.g, g.n = groupAcc{}, 0
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
				g.n++
				return g.g.emit(g.Keys, g.Aggs), true, nil
			}
			return nil, false, nil
		}
		var out Row
		if g.g.started {
			switch c := compareByKeys(row, g.g.cur, g.Keys); {
			case c < 0:
				return nil, false, fmt.Errorf("exec: sorted grouping over unsorted input")
			case c == 0:
				g.g.add(row, g.Aggs)
				continue
			}
			out = g.g.emit(g.Keys, g.Aggs)
		}
		g.g.start(append(g.g.cur[:0], row...), g.Aggs) // the last group's copy, reused
		if out != nil {
			g.n++
			return out, true, nil
		}
	}
}

// Close implements Iterator.
func (g *GroupSorted) Close() error {
	if g.opened {
		g.opened = false
		countRows(g.st, g.n)
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
	// Life, when set, is charged for the group table as its group count
	// doubles. An accumulator pins its group's first input row, whose
	// chunk its input's join charged.
	Life *Life

	st      *OpStats // counted into at Close, when set
	groups  groupTable
	charged int // the group count charged so far
	pos     int
	opened  bool
}

// Open implements Iterator.
func (g *GroupHash) Open() error {
	g.opened = true // before In opens, so Close reaches it if Open does not return
	g.groups = newGroupTable(len(g.Keys))
	g.charged, g.pos = 0, 0
	if err := g.In.Open(); err != nil {
		return err
	}
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
			if len(g.groups.order) > g.charged {
				if err := double(g.Life, &g.charged, groupSlotBytes+8*int64(len(g.Aggs))); err != nil {
					return err
				}
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
		countRows(g.st, int64(g.pos))
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

	st     *OpStats // counted into at Close, when set
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
	countRows(l.st, l.n)
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
