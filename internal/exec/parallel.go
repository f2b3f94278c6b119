package exec

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"orderopt/internal/plan"
	"orderopt/internal/query"
)

// This file is the morsel-driven parallel execution tier. An exchange
// plan node (plan.ExchangeMerge / plan.ExchangeUnion) covers a
// "segment": the left spine of joins from the exchange down to a single
// driving scan, with every right-hand join input hanging off the spine.
// Compilation splits the segment in two:
//
//   - Shared state, executed ONCE at exchange Open through the ordinary
//     serial wrappers (stats counted once, cancellation polled, fault
//     hooks applied): hash-join build tables, nested-loop inners, and —
//     new relative to the serial operators — the merge joins' right
//     inputs, materialized and sortedness-verified up front so workers
//     can re-read them by galloping seek instead of re-executing the
//     subtree per morsel.
//   - The spine, evaluated per MORSEL: the driving scan's rows are
//     split into contiguous morsels pulled off an atomic counter by a
//     worker pool; each worker streams its morsel through the serial
//     path's scan (with the relation's filter, under the fault hook when
//     one is set) into the fused spine evaluator (runMorsel: one nested
//     loop over the shared state), collects the output, and hands it
//     back. The spine joins are loop levels of that evaluator, not
//     operators: a fault hook reaches the driving scan, the shared side
//     and the exchange itself, never a spine join.
//
// Order preservation is the whole point of ExchangeMerge, and it holds
// by a restriction argument rather than by sorting: every spine join
// preserves its outer (left) order and emits, per outer row, a match
// sequence fully determined by the shared right-side state (merge group
// order, hash bucket order, nested-loop inner order — identical across
// workers because the state is shared and immutable). A morsel's output
// is therefore exactly the serial segment's output restricted to that
// morsel's driving rows, and concatenating worker outputs in morsel
// order reproduces the serial row sequence row for row. Every ordering
// and FD property the child plan claims survives — with zero
// sorting, which is what keeps rows-sorted/op at 0 for the DFSM plans.
// The same argument is why Sort and Group operators are excluded from
// the spine: Sort(morsel) is not Sort(all) restricted to the morsel.
//
// ExchangeUnion skips the morsel-order reassembly and emits results in
// arrival order — cheaper (no head-of-line blocking), order-destroying,
// for pipelines whose consumer claims no order.

// activeWorkers counts morsel workers currently running across all
// exchanges in the process — the serving layer's /healthz gauge.
var activeWorkers atomic.Int64

// ActiveWorkers reports the number of morsel workers currently running
// process-wide.
func ActiveWorkers() int64 { return activeWorkers.Load() }

// morselMinSize/morselMaxSize clamp the adaptive morsel size: roughly
// 2 morsels per worker for steal-balance, but never so small that
// per-morsel pipeline setup dominates.
const (
	morselMinSize = 64
	morselMaxSize = 8192
)

// morselRunRows is how many driving rows a worker takes from its
// morsel's scan at once (nextRun).
const morselRunRows = 64

func morselSize(n, dop int) int {
	sz := n / (2 * dop)
	if sz < morselMinSize {
		sz = morselMinSize
	}
	if sz > morselMaxSize {
		sz = morselMaxSize
	}
	return sz
}

// spineStep is one join on the parallelized spine: its resolved
// predicates, its compiled right-hand input (run once), and the shared
// state workers probe.
type spineStep struct {
	op      plan.Op
	st      *OpStats
	right   Iterator // compiled serial right side; drained once at Open
	eqs     []joinEq // left positions are in the spine's pieces, concatenated
	primary int
	est     int // planner's right-side cardinality estimate (presizing)

	// adopted is set for a right side adopted at compile time instead of
	// streamed per execution (Runner.joinRight): a merge join over a
	// maintained index view whose leading column is the merge key, or a
	// hash join whose build side is a bare base-relation scan. Open
	// neither streams nor re-verifies the subtree, and charges no
	// budget: the state is the dataset's own memory.
	adopted *bareScan

	// Shared state, filled by materialize at exchange Open (or from
	// adopted); immutable (and therefore safely shared) once workers
	// start.
	hash   *hashView // HashJoin: the one shared build table
	sorted []Row     // MergeJoin: materialized, verified right input
	inner  []Row     // NestedLoopJoin: materialized inner
}

// bulkHold batches budget charges during shared-side materialization:
// one Life.hold per batch instead of two atomics per row.
type bulkHold struct {
	life      *Life
	pendRows  int64
	pendBytes int64
}

func (b *bulkHold) add(r Row) error {
	b.pendRows++
	b.pendBytes += rowBytes(r)
	if b.pendRows >= 1024 {
		return b.flush()
	}
	return nil
}

func (b *bulkHold) flush() error {
	err := b.life.hold(b.pendBytes)
	b.pendRows, b.pendBytes = 0, 0 // a failed hold charged nothing
	return err
}

// materialize builds the step's shared state. The adopted fast path
// takes the dataset's state and records its row count (sortedness on
// the merge key is structural: the key is the index's leading column);
// the general path runs the compiled right-hand subtree to completion,
// charging the materialized rows against the query budget (released
// with the pipeline, like the serial builds).
func (s *spineStep) materialize(life *Life) error {
	key := s.eqs[s.primary].r
	if a := s.adopted; a != nil {
		s.hash, s.sorted = a.hash, a.rows // the one the step's join reads
		a.st.Rows = int64(len(a.rows))
		return nil
	}
	bh := &bulkHold{life: life}
	collect := func(hold func(Row) error) ([]Row, error) {
		// The estimate only presizes, and is capped like morselHint: a
		// plan costed against statistics far larger than the data (the
		// SF-1 catalog over the mini datasets) would otherwise allocate,
		// and fault in, a hundred-megabyte slice per query before its
		// first row and before any cancellation poll.
		rows := make([]Row, 0, min(max(s.est, 0), 1<<16))
		err := drainInto(s.right, func(row Row) error {
			if err := hold(row); err != nil {
				return err
			}
			rows = append(rows, row)
			return nil
		})
		return rows, err
	}
	var err error
	switch s.op {
	case plan.HashJoin:
		s.hash, err = buildHash(s.right, key, bh.add)
	case plan.MergeJoin:
		var prev int64
		have := false
		s.sorted, err = collect(func(row Row) error {
			k := row[key]
			if have && k < prev {
				return fmt.Errorf("exec: merge join right input not sorted on column %d", key)
			}
			prev, have = k, true
			return bh.add(row)
		})
	default: // NestedLoopJoin
		s.inner, err = collect(bh.add)
	}
	if err != nil {
		return err
	}
	return bh.flush()
}

// gallopGE returns the index of the first row in rows[from:] with
// rows[i][key] >= k, galloping from `from` (keys ascend over a morsel's
// life, so the target is usually near).
func gallopGE(rows []Row, key, from int, k int64) int {
	n := len(rows)
	lo, width := from, 1
	for lo < n && rows[lo][key] < k {
		lo += width
		width <<= 1
	}
	hi := lo
	lo -= width >> 1
	if hi > n {
		hi = n
	}
	return lo + sort.Search(hi-lo, func(i int) bool {
		return rows[lo+i][key] >= k
	})
}

// fusedEq is one join equality with the left side resolved to a
// (piece, column) pair — pieces are the driving row plus each step's
// matched right row, never concatenated until final emission. In the
// exchange's output layout (Exchange.fusedOut) it is one output column;
// rcol is unused there.
type fusedEq struct{ piece, col, rcol int }

// fusedStep is one spine join compiled for the fused evaluator.
type fusedStep struct {
	op               plan.Op
	s                *spineStep
	keyPiece, keyCol int       // primary equality, left side
	rightKey         int       // primary equality, column in the right piece
	res              []fusedEq // non-primary equalities (merge/hash residual)
	all              []fusedEq // every equality (nested-loop predicate)
}

func (f *fusedStep) resOK(pieces []Row, r Row) bool {
	for _, e := range f.res {
		if pieces[e.piece][e.col] != r[e.rcol] {
			return false
		}
	}
	return true
}

// buildFused lowers the spine steps into the fused evaluator's form:
// every column reference resolved to a (piece, column) pair against
// the piece widths recorded at compile time.
func (x *Exchange) buildFused() {
	x.fused = make([]fusedStep, 0, len(x.steps))
	for i, s := range x.steps {
		f := fusedStep{op: s.op, s: s}
		widths := x.pieceWidths[:i+1]
		k := s.eqs[s.primary]
		f.keyPiece, f.keyCol = locatePiece(widths, k.l)
		f.rightKey = k.r
		for ei, e := range s.eqs {
			pe, ce := locatePiece(widths, e.l)
			fe := fusedEq{piece: pe, col: ce, rcol: e.r}
			f.all = append(f.all, fe)
			if ei != s.primary {
				f.res = append(f.res, fe)
			}
		}
		x.fused = append(x.fused, f)
	}
	x.fusedOut = x.fusedOut[:0]
	for _, c := range x.lastEmit.lcols {
		pc, cc := locatePiece(x.pieceWidths, c)
		x.fusedOut = append(x.fusedOut, fusedEq{piece: pc, col: cc})
	}
	for _, c := range x.lastEmit.rcols {
		x.fusedOut = append(x.fusedOut, fusedEq{piece: len(x.steps), col: c})
	}
}

// locatePiece maps a column position in the concatenated schema of the
// given pieces to (piece index, column within piece).
func locatePiece(widths []int, c int) (int, int) {
	for j, w := range widths {
		if c < w {
			return j, c
		}
		c -= w
	}
	// unreachable for well-formed plans: the resolver only yields
	// columns inside the combined schema
	return len(widths) - 1, c
}

// runMorsel evaluates one morsel of driving rows through the whole
// spine in a single nested loop, collects its output and charges it
// against the budget. The morsel's rows stream through the driving
// scan (Exchange.scan: the relation's filter, and the fault hook when
// one is set, so injected faults fire inside the worker), a run of rows
// at a time (nextRun, into the worker's buf); per driving row, each
// step's matches are located directly in the shared state
// (merge groups by galloping seek, hash buckets by lookup, nested-loop
// inners by scan) and only the final result row is materialized — one
// allocation per output row, no intermediate rows, no per-row operator
// hand-off. Output order is the serial sequence restricted to the
// morsel: match order within a step is fixed by the shared state, and
// the driving rows ascend.
func (x *Exchange) runMorsel(rows, buf []Row) morselResult {
	if err := x.life.Err(); err != nil {
		return morselResult{err: err}
	}
	scan := x.scan(rows)
	defer scan.Close() // before Open, so a panic inside Open closes too
	if err := scan.Open(); err != nil {
		return morselResult{err: err}
	}
	out := make([]Row, 0, x.morselHint())
	var al rowAlloc
	nsteps := len(x.fused)
	totalW := 0
	for _, w := range x.pieceWidths {
		totalW += w
	}
	pieces := make([]Row, nsteps+1)
	// merge cursors, one per step: the current duplicate-key group
	// [gs, ge) and a forward-only seek frontier, like the serial merge
	// join's group buffer but as a window into the shared slice.
	type mcur struct {
		gs, ge int
		key    int64
		have   bool
	}
	curs := make([]mcur, nsteps)
	cnt := make([]int64, nsteps)
	var leafRows int64
	var rec func(level int) error
	rec = func(level int) error {
		if level == nsteps {
			if !x.lastEmit.narrow {
				out = append(out, al.concatN(pieces, totalW))
				return nil
			}
			row := al.carve(len(x.fusedOut))
			for i, c := range x.fusedOut {
				row[i] = pieces[c.piece][c.col]
			}
			out = append(out, row)
			return nil
		}
		f := &x.fused[level]
		switch f.op {
		case plan.MergeJoin:
			lk := pieces[f.keyPiece][f.keyCol]
			c := &curs[level]
			if !c.have || c.key != lk {
				if c.have && lk < c.key {
					return fmt.Errorf("exec: merge join left input not sorted (key %d after %d)", lk, c.key)
				}
				sorted := f.s.sorted
				gs := gallopGE(sorted, f.rightKey, c.ge, lk)
				ge := gs
				for ge < len(sorted) && sorted[ge][f.rightKey] == lk {
					ge++
				}
				c.gs, c.ge, c.key, c.have = gs, ge, lk, true
			}
			sorted := f.s.sorted
			for i := c.gs; i < c.ge; i++ {
				r := sorted[i]
				if len(f.res) > 0 && !f.resOK(pieces, r) {
					continue
				}
				pieces[level+1] = r
				cnt[level]++
				if err := rec(level + 1); err != nil {
					return err
				}
			}
		case plan.HashJoin:
			for _, r := range f.s.hash.bucket(pieces[f.keyPiece][f.keyCol]) {
				if len(f.res) > 0 && !f.resOK(pieces, r) {
					continue
				}
				pieces[level+1] = r
				cnt[level]++
				if err := rec(level + 1); err != nil {
					return err
				}
			}
		default: // NestedLoopJoin
		inner:
			for _, r := range f.s.inner {
				for _, e := range f.all {
					if pieces[e.piece][e.col] != r[e.rcol] {
						continue inner
					}
				}
				pieces[level+1] = r
				cnt[level]++
				if err := rec(level + 1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for {
		run, err := nextRun(scan, buf)
		if err != nil {
			return morselResult{err: err}
		}
		if len(run) == 0 {
			break
		}
		for _, d := range run {
			leafRows++
			if leafRows&(CancelCheckInterval-1) == 0 {
				if err := x.life.Err(); err != nil {
					return morselResult{err: err}
				}
				if x.life.drained() {
					// Quiesced mid-morsel: the consumer can never observe
					// this morsel's output, so abandon it without error
					// (the collected prefix was not yet budget-charged).
					return morselResult{}
				}
			}
			if nsteps == 0 {
				out = append(out, d)
				continue
			}
			pieces[0] = d
			if err := rec(0); err != nil {
				return morselResult{err: err}
			}
		}
	}
	// The segment's entries are shared by every worker: each is touched
	// once per morsel, and Exchange.Close's wg.Wait orders the adds
	// before any read.
	atomic.AddInt64(&x.leafSt.Rows, leafRows)
	for i := range x.fused {
		atomic.AddInt64(&x.fused[i].s.st.Rows, cnt[i])
	}
	x.lastOut.Store(int64(len(out)))
	var bytes int64
	if len(out) > 0 {
		bytes = int64(len(out)) * rowBytes(out[0])
	}
	if err := x.life.hold(bytes); err != nil {
		return morselResult{err: err}
	}
	return morselResult{rows: out, bytes: bytes}
}

// morselHint estimates one morsel's output size from the planner's
// exchange cardinality, refined by the last completed morsel's actual
// output — planner estimates routinely undershoot, and a short hint
// costs a chain of growslice copies per morsel.
func (x *Exchange) morselHint() int {
	hint := 16
	if x.nm > 0 {
		if h := int(x.estCard)/x.nm + 8; h > hint {
			hint = h
		}
	}
	if last := int(x.lastOut.Load()); last > 0 {
		if h := last + last>>2; h > hint {
			hint = h
		}
	}
	if hint > 1<<16 {
		hint = 1 << 16
	}
	return hint
}

// morselResult is one morsel's collected output (or the error that
// killed it). rows are already charged against the query budget; the
// consumer releases the charge as it emits them.
type morselResult struct {
	rows  []Row
	bytes int64
	err   error
}

// Exchange executes a compiled segment morsel-parallel. ordered selects
// ExchangeMerge semantics (reassemble worker outputs in morsel order —
// order-preserving) over ExchangeUnion (arrival order). One Exchange is
// single-use, like the pipeline holding it.
type Exchange struct {
	ordered bool
	dop     int
	life    *Life
	estCard float64      // planner's output estimate, sizes morsel buffers
	lastOut atomic.Int64 // most recent morsel's actual output size, refines the estimate

	driving     []Row
	scan        func(morsel []Row) Iterator // the driving scan over one morsel (buildSegment)
	leafSt      *OpStats
	steps       []*spineStep // bottom-up along the spine
	pieceWidths []int        // column width of the driving leaf, then each step's right side
	// lastEmit is the top spine join's output layout (joinOutput), which
	// is the exchange's; the fused evaluator emits it through fusedOut.
	// Nothing is pruned between steps: the evaluator has no intermediate
	// rows.
	lastEmit joinEmit
	fused    []fusedStep // fused spine evaluator steps (see runMorsel)
	fusedOut []fusedEq   // lastEmit's columns as (piece, column) pairs

	stop     chan struct{}
	wg       sync.WaitGroup
	outs     []chan morselResult // ordered: one per morsel, cap 1 (sends never block)
	out      chan morselResult   // unordered: cap = morsel count
	nm       int                 // morsel count
	seq      int                 // morsels consumed
	cur      []Row
	curBytes int64
	ci       int
	opened   bool
}

// Open materializes the shared state (once, serially), partitions the
// driving rows into morsels, and starts the worker pool. Workers run
// ahead of the consumer; every morsel output is budget-charged, so
// run-ahead is bounded by the query budget like any other
// materialization.
func (x *Exchange) Open() error {
	if err := x.life.Err(); err != nil {
		return err
	}
	for _, s := range x.steps {
		if err := s.materialize(x.life); err != nil {
			return err
		}
	}
	x.buildFused()
	d := x.driving
	sz := morselSize(len(d), x.dop)
	nm := (len(d) + sz - 1) / sz
	workers := x.dop
	if workers > nm {
		workers = nm
	}
	x.nm = nm
	x.seq, x.cur, x.curBytes, x.ci = 0, nil, 0, 0
	x.stop = make(chan struct{})
	if x.ordered {
		x.outs = make([]chan morselResult, nm)
		for i := range x.outs {
			x.outs[i] = make(chan morselResult, 1)
		}
	} else {
		x.out = make(chan morselResult, nm)
	}
	// Every result channel has capacity for every send, so workers
	// never block handing a morsel back — the consumer may be gone
	// (Close) and nothing leaks.
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		x.wg.Add(1)
		go func() {
			defer x.wg.Done()
			activeWorkers.Add(1)
			defer activeWorkers.Add(-1)
			buf := make([]Row, morselRunRows) // the worker's nextRun buffer
			for {
				select {
				case <-x.stop:
					return
				default:
				}
				if x.life.drained() {
					// The consumer's Limit is satisfied: no output past
					// this point can be observed, so stop claiming morsels.
					return
				}
				i := int(next.Add(1)) - 1
				if i >= nm {
					return
				}
				hi := (i + 1) * sz
				if hi > len(d) {
					hi = len(d)
				}
				res := x.runMorselRecovered(d[i*sz:hi], buf)
				if res.err != nil {
					// First failure aborts the siblings through the
					// shared Life (they observe it at their next
					// cancellation poll). The consumer still receives a
					// result for every claimed morsel, so it never
					// blocks on a morsel nobody will deliver.
					x.life.abort(res.err)
				}
				if x.ordered {
					x.outs[i] <- res
				} else {
					x.out <- res
				}
			}
		}()
	}
	x.opened = true
	return nil
}

// runMorselRecovered is runMorsel with a panic turned into the morsel's
// error. A worker is a goroutine of its own, out of reach of the serving
// layer's recovering handler, so a panic here would otherwise end the
// process; as an error it aborts the siblings and reaches the consumer
// like any other failed morsel. runMorsel's deferred Close still runs as
// the panic unwinds, so the morsel's driving scan is closed either way.
func (x *Exchange) runMorselRecovered(rows, buf []Row) (res morselResult) {
	defer func() {
		if v := recover(); v != nil {
			res = morselResult{err: fmt.Errorf("exec: panic in exchange worker: %v", v)}
		}
	}()
	return x.runMorsel(rows, buf)
}

// SizeHint implements sizeHinter with the planner's output estimate.
func (x *Exchange) SizeHint() int { return int(x.estCard) }

// NextBatch implements batchIterator: hand out each morsel's whole
// output at once. The batch stays charged against the budget until the
// following call advances past it, mirroring Next.
func (x *Exchange) NextBatch() ([]Row, bool, error) {
	for x.ci == len(x.cur) {
		if ok, err := x.advance(); !ok {
			return nil, false, err
		}
	}
	batch := x.cur[x.ci:]
	x.ci = len(x.cur)
	return batch, true, nil
}

// Next implements Iterator: emit the buffered morsel's rows one by one.
func (x *Exchange) Next() (Row, bool, error) {
	for x.ci == len(x.cur) {
		if ok, err := x.advance(); !ok {
			return nil, false, err
		}
	}
	r := x.cur[x.ci]
	x.ci++
	return r, true, nil
}

// advance releases the buffered morsel's budget charge and blocks for
// the next one — the seq'th morsel's channel when order-preserving,
// whatever arrives first when not. It reports false at the end of the
// stream and on a failed morsel.
func (x *Exchange) advance() (bool, error) {
	if x.cur != nil {
		x.life.release(x.curBytes)
		x.cur, x.curBytes, x.ci = nil, 0, 0
	}
	if x.seq >= x.nm {
		return false, nil
	}
	var res morselResult
	if x.ordered {
		res = <-x.outs[x.seq]
	} else {
		res = <-x.out
	}
	x.seq++
	if res.err != nil {
		return false, res.err
	}
	x.cur, x.curBytes, x.ci = res.rows, res.bytes, 0
	return true, nil
}

// Close stops the pool, waits for every worker to exit (the
// happens-before edge that makes the shared OpStats safe to read), and
// releases whatever buffered morsel output the consumer never took.
func (x *Exchange) Close() error {
	if !x.opened {
		return nil
	}
	x.opened = false
	close(x.stop)
	x.wg.Wait()
	if x.cur != nil {
		x.life.release(x.curBytes)
		x.cur, x.curBytes, x.ci = nil, 0, 0
	}
	drain := func(res morselResult) {
		if res.rows != nil {
			x.life.release(res.bytes)
		}
	}
	if x.ordered {
		for i := x.seq; i < x.nm; i++ {
			select {
			case res := <-x.outs[i]:
				drain(res)
			default:
			}
		}
	} else if x.out != nil {
		for {
			select {
			case res := <-x.out:
				drain(res)
				continue
			default:
			}
			break
		}
	}
	return nil
}

// buildExchange compiles an exchange node: validate and split the
// segment, register every segment operator's OpStats in plan preorder
// (tagged with the effective DOP), and return the Exchange iterator.
func (r *Runner) buildExchange(n *plan.Node, p *Pipeline, st *OpStats, live liveCols) (Iterator, []query.ColumnRef, error) {
	dop := n.DOP
	if r.MaxDOP > 0 && dop > r.MaxDOP {
		dop = r.MaxDOP
	}
	if dop < 1 {
		dop = 1
	}
	st.DOP = dop
	x := &Exchange{
		ordered: n.Op == plan.ExchangeMerge,
		dop:     dop,
		life:    p.Life,
		estCard: n.Card,
	}
	schema, err := r.buildSegment(n.Left, p, x, live)
	if err != nil {
		return nil, nil, err
	}
	if k := len(x.steps); k > 0 {
		ll := len(schema) - x.pieceWidths[k]
		schema, x.lastEmit = joinOutput(live, schema[:ll], schema[ll:])
	}
	return r.wrap(x, st, p), schema, nil
}

// buildSegment compiles the exchange's child: the join spine is
// resolved into spineSteps (their right-hand inputs compiled as
// ordinary serial subtrees), the driving leaf into the exchange's
// morsel source. Any operator the restriction argument does not cover
// (Sort, grouping, a nested exchange) is rejected — the optimizer
// never emits one inside a segment. live (see Runner.build) prunes the
// right-hand subtrees; the schema returned is every piece's, whole and
// concatenated, and buildExchange prunes the output.
func (r *Runner) buildSegment(n *plan.Node, p *Pipeline, x *Exchange, live liveCols) ([]query.ColumnRef, error) {
	switch n.Op {
	case plan.TableScan, plan.IndexScan:
		leaf, err := r.resolveScan(n)
		if err != nil {
			return nil, err
		}
		st := &OpStats{Op: n.Op.String(), Detail: leaf.detail, EstRows: n.Card, DOP: x.dop}
		p.Ops = append(p.Ops, st)
		// Each worker scans its morsel the way the serial path scans the
		// relation, and the hook is offered every morsel's scan.
		hook := r.Hook
		x.driving, x.leafSt = leaf.rows, st
		x.scan = func(morsel []Row) Iterator { return hooked(hook, leaf.iter(morsel), st, p.Life) }
		x.pieceWidths = append(x.pieceWidths, len(leaf.schema))
		return leaf.schema, nil

	case plan.MergeJoin, plan.HashJoin, plan.NestedLoopJoin:
		st := &OpStats{Op: n.Op.String(), EstRows: n.Card, DOP: x.dop}
		p.Ops = append(p.Ops, st)
		j, err := r.compileJoin(n, p, st, live, true, func(live liveCols) ([]query.ColumnRef, error) {
			return r.buildSegment(n.Left, p, x, live)
		})
		if err != nil {
			return nil, err
		}
		step := &spineStep{op: n.Op, st: st, right: j.it, adopted: j.adopted,
			eqs: j.eqs, primary: j.primary, est: int(n.Right.Card)}
		x.pieceWidths = append(x.pieceWidths, len(j.schema))
		x.steps = append(x.steps, step)
		return append(append([]query.ColumnRef{}, j.ls...), j.schema...), nil
	}
	return nil, fmt.Errorf("exec: exchange over non-parallelizable operator %v", n.Op)
}

// bareScan describes a plan node that is a bare, unfiltered scan of a
// base relation, which a join may adopt instead of compiling
// (Runner.joinRight): the rows the scan would stream, the name of that
// stream for Dataset.buildTable (the adopter fills in the key column),
// the stats entry to register where the compiled scan's would stand,
// the scan's schema, the column the stream is sorted on first (an
// index view's leading key column; -1 for a table scan), and — for a
// hash join's build side — the resident build table adopted.
type bareScan struct {
	rows    []Row
	key     buildKey
	st      *OpStats
	schema  []query.ColumnRef
	leading int
	hash    *hashView
}

// bareScanRows returns n's bareScan — a table scan's rows, or an index
// scan's maintained view — and nil for anything else, and for
// everything under a fault hook: adoption skips instantiating the
// scan, and the hook must be offered every scan that runs.
func (r *Runner) bareScanRows(n *plan.Node) *bareScan {
	if r.Hook != nil || (n.Op != plan.TableScan && n.Op != plan.IndexScan) {
		return nil
	}
	leaf, err := r.resolveScan(n)
	if err != nil || leaf.filter != nil {
		return nil
	}
	return &bareScan{rows: leaf.rows, key: leaf.key, schema: leaf.schema, leading: leaf.leading,
		st: &OpStats{Op: n.Op.String(), Detail: leaf.detail, EstRows: n.Card}}
}
