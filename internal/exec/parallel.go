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
// plan node (plan.ExchangeMerge) covers a spine of joins over a single
// driving scan (spine.go), or the scan alone.
// Compilation splits it in two:
//
//   - Shared state, executed ONCE at exchange Open through the ordinary
//     serial operators (stats counted once, cancellation polled, fault
//     hooks applied): each level's right-hand state (materialize) — hash
//     build tables, nested-loop inners, and merge joins' right inputs,
//     materialized and sortedness-verified up front where no index view
//     is adopted, so workers read them by galloping seek instead of
//     streaming the subtree per morsel.
//   - The spine, run per MORSEL: the driving scan's rows are split into
//     contiguous morsels pulled off an atomic counter by a worker pool;
//     each worker streams its morsel through the serial path's scan
//     (with the relation's predicates, under the fault hook when one is
//     set) into a cursor of the spine (runMorsel), the same cursor a serial
//     plan runs, collects the output, and hands it back. A fault hook
//     reaches the driving scan, the shared side and the exchange itself,
//     never a spine join.
//
// Order preservation is the whole point of the exchange, and it holds
// by a restriction argument rather than by sorting: every spine level
// preserves its left order and emits, per left row, a match sequence
// fully determined by the shared right-side state (merge group order,
// hash bucket order, nested-loop inner order — identical across workers
// because the state is shared and immutable). A morsel's output is
// therefore exactly the serial spine's output restricted to that
// morsel's driving rows, and concatenating worker outputs in morsel
// order reproduces the serial row sequence row for row, at any DOP.
// Every ordering and FD property the child plan claims survives — with
// zero sorting, which is what keeps rows-sorted/op at 0 for the DFSM
// plans. The same argument is why Sort and Group operators are excluded
// from the spine: Sort(morsel) is not Sort(all) restricted to the morsel.

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

// runMorsel runs one morsel of driving rows through a cursor of the
// spine, collects its output and charges what that took — the output's
// row headers and its allocator's chunks — against the budget, once. The
// morsel's rows stream through a copy of the driving scan (the relation's
// predicates, and the fault hook when one is set, so injected faults fire
// inside the worker). The scan and the cursor's levels count into their
// shared entries when the morsel ends, however it ends. Output order is
// the serial sequence restricted to the morsel: match order within a
// level is fixed by the shared state, and the driving rows ascend.
//
// A panic becomes the morsel's error: a worker is out of reach of the
// serving layer's recovering handler, and as an error the panic aborts
// the siblings like any other failed morsel instead of the process.
func (x *Exchange) runMorsel(rows []Row) (res morselResult) {
	defer func() {
		if v := recover(); v != nil {
			res = morselResult{err: fmt.Errorf("exec: panic in exchange worker: %v", v)}
		}
	}()
	if err := x.life.Err(); err != nil {
		return morselResult{err: err}
	}
	s := x.leaf
	s.rows = rows
	in := hooked(x.hook, &s, s.st, x.life)
	c := x.sp.newCursor(in, x.life)
	// The entries are shared by every worker; Exchange.Close's wg.Wait
	// orders the adds before any read.
	defer c.flush()
	defer in.Close() // before Open, so a panic inside Open closes too
	if err := in.Open(); err != nil {
		return morselResult{err: err}
	}
	out := make([]Row, 0, x.morselHint())
	for {
		row, ok, err := c.Next()
		if err != nil {
			return morselResult{err: err}
		}
		if !ok {
			break
		}
		out = append(out, row)
	}
	if x.life.drained() {
		// Quiesced: the consumer can never observe this morsel's output,
		// so abandon it without error (it was not yet budget-charged).
		return morselResult{}
	}
	x.lastOut.Store(int64(len(out)))
	bytes := int64(cap(out))*rowHeaderBytes + c.alloc.took
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

// Exchange runs a compiled spine over a scan morsel-parallel and
// reassembles the worker outputs in morsel order, so its output is the
// serial spine's row sequence. One Exchange is single-use, like the
// pipeline holding it.
type Exchange struct {
	dop     int
	life    *Life
	st      *OpStats     // counted into at Close
	estCard float64      // planner's output estimate, sizes morsel buffers
	lastOut atomic.Int64 // most recent morsel's actual output size, refines the estimate

	leaf scan     // the driving scan over every driving row; each morsel runs a copy over its own
	hook IterHook // offered each morsel's scan
	sp   spine    // the joins over the driving scan; no levels for a bare scan

	stop     chan struct{}
	wg       sync.WaitGroup
	outs     []chan morselResult // one per morsel, cap 1 (sends never block)
	nm       int                 // morsel count
	seq      int                 // morsels consumed
	cur      []Row
	curBytes int64
	ci       int
	n        int64 // rows handed out since the last Close
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
	for k := range x.sp.levels {
		if err := x.sp.levels[k].materialize(x.life); err != nil {
			return err
		}
	}
	d := x.leaf.rows
	sz := morselSize(len(d), x.dop)
	nm := (len(d) + sz - 1) / sz
	workers := x.dop
	if workers > nm {
		workers = nm
	}
	x.nm = nm
	x.seq, x.cur, x.curBytes, x.ci, x.n = 0, nil, 0, 0, 0
	x.stop = make(chan struct{})
	x.outs = make([]chan morselResult, nm)
	for i := range x.outs {
		x.outs[i] = make(chan morselResult, 1)
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
				res := x.runMorsel(d[i*sz : hi])
				if res.err != nil {
					// First failure aborts the siblings through the
					// shared Life (they observe it at their next
					// cancellation poll). The consumer still receives a
					// result for every claimed morsel, so it never
					// blocks on a morsel nobody will deliver.
					x.life.abort(res.err)
				}
				x.outs[i] <- res
			}
		}()
	}
	x.opened = true
	return nil
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
	x.n++
	return r, true, nil
}

// advance releases the buffered morsel's budget charge and blocks on
// the seq'th morsel's channel. It reports false at the end of the
// stream and on a failed morsel.
func (x *Exchange) advance() (bool, error) {
	if x.cur != nil {
		x.life.release(x.curBytes)
		x.cur, x.curBytes, x.ci = nil, 0, 0
	}
	if x.seq >= x.nm {
		return false, nil
	}
	res := <-x.outs[x.seq]
	x.seq++
	if res.err != nil {
		return false, res.err
	}
	x.cur, x.curBytes, x.ci = res.rows, res.bytes, 0
	return true, nil
}

// Close stops the pool, waits for every worker to exit (the
// happens-before edge that makes the shared OpStats safe to read),
// recycles the build tables Open made, and releases whatever buffered
// morsel output the consumer never took.
func (x *Exchange) Close() error {
	if !x.opened {
		x.release() // an Open that failed after a build
		return nil
	}
	x.opened = false
	countRows(x.st, x.n)
	close(x.stop)
	x.wg.Wait()
	x.release()
	if x.cur != nil {
		x.life.release(x.curBytes)
		x.cur, x.curBytes, x.ci = nil, 0, 0
	}
	for i := x.seq; i < x.nm; i++ {
		select {
		case res := <-x.outs[i]:
			if res.rows != nil {
				x.life.release(res.bytes)
			}
		default:
		}
	}
	return nil
}

// release drops the levels' shared state.
func (x *Exchange) release() {
	for k := range x.sp.levels {
		x.sp.levels[k].release()
	}
}

// shapeExchange compiles exchange node n into o: its child, a spine of
// joins over a scan or the scan alone, every operator's entry registered
// in plan preorder. A driving input other than a scan is rejected: the
// restriction argument does not cover it, and the optimizer never plans
// one.
func (r *Runner) shapeExchange(n *plan.Node, s *Shape, o *opShape, live liveCols) ([]query.ColumnRef, error) {
	o.dop, o.dops, o.spine = n.DOP, []int{o.st}, &spineShape{}
	drive := func(n *plan.Node, _ liveCols) ([]query.ColumnRef, error) {
		if n.Op != plan.TableScan && n.Op != plan.IndexScan {
			return nil, fmt.Errorf("exec: exchange over non-parallelizable operator %v", n.Op)
		}
		o.in = &opShape{op: n.Op, st: s.entry(n)}
		o.in.leaf = r.shapeScan(n, &s.ops[o.in.st])
		o.dops = append(o.dops, o.in.st)
		return o.in.leaf.schema, nil
	}
	child := n.Left
	if !isJoin(child.Op) {
		return drive(child, live)
	}
	cst := s.entry(child)
	o.dops = append(o.dops, cst)
	return r.shapeSpine(child, s, cst, live, o.spine, &o.dops, drive)
}

// buildExchange compiles exchange o: every entry it covers tagged with
// the effective DOP, the spine's levels, and the Exchange iterator. Each
// worker scans its morsel the way the serial path scans the relation,
// and the hook is offered every morsel's scan.
func (r *Runner) buildExchange(o *opShape, p *Pipeline) (Iterator, error) {
	dop := o.dop
	if r.MaxDOP > 0 && dop > r.MaxDOP {
		dop = r.MaxDOP
	}
	dop = max(dop, 1)
	for _, i := range o.dops {
		p.Ops[i].DOP = dop
	}
	st := p.Ops[o.st]
	x := &Exchange{dop: dop, life: p.Life, st: st, estCard: st.EstRows, hook: r.Hook}
	err := r.buildSpine(o.spine, p, &x.sp, func() error {
		rows, err := r.rows(o.in.leaf)
		x.leaf = scan{rows: rows, pred: o.in.leaf.pred, st: p.Ops[o.in.st], life: p.Life}
		return err
	})
	if err != nil {
		return nil, err
	}
	return r.wrap(x, st, p), nil
}
