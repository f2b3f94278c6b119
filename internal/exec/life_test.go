package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orderopt/internal/catalog"
	"orderopt/internal/plan"
	"orderopt/internal/query"
	"orderopt/internal/tpcr"
)

// counter is an endless sorted source: row n is {n, n}. Pipelines over
// it only ever stop because the lifecycle stops them, which is exactly
// what these tests are about.
type counter struct{ n int64 }

func (c *counter) Open() error { c.n = 0; return nil }
func (c *counter) Next() (Row, bool, error) {
	c.n++
	return Row{c.n, c.n}, true, nil
}
func (c *counter) Close() error { return nil }

// closeCount counts Close calls through to its input.
type closeCount struct {
	Iterator
	closed *atomic.Int64
}

func (c closeCount) Close() error {
	c.closed.Add(1)
	return c.Iterator.Close()
}

// dropAll drains its input and hands out none of it.
type dropAll struct{ Iterator }

func (d dropAll) Next() (Row, bool, error) {
	for {
		if _, ok, err := d.Iterator.Next(); err != nil || !ok {
			return nil, false, err
		}
	}
}

// openCount counts Open calls through to its input.
type openCount struct {
	Iterator
	opened *atomic.Int64
}

func (o openCount) Open() error {
	o.opened.Add(1)
	return o.Iterator.Open()
}

// source makes an operator of these tests a stand-in for a scan, where
// rows start: it counts the rows it hands out into st at Close and polls
// life every CancelCheckInterval of them.
type source struct {
	Iterator
	st   *OpStats
	life *Life
	n    int64
}

func (s *source) Next() (Row, bool, error) {
	if s.n&(CancelCheckInterval-1) == 0 {
		if err := s.life.Err(); err != nil {
			return nil, false, err
		}
	}
	row, ok, err := s.Iterator.Next()
	if ok {
		s.n++
	}
	return row, ok, err
}

func (s *source) Close() error {
	countRows(s.st, s.n)
	s.n = 0
	return s.Iterator.Close()
}

// wrapped compiles it the way a timing Runner.Compile compiles an
// operator, under a stats wrapper, as a source: the endless inputs of
// these tests (counter) play the scans, which poll the Life.
func wrapped(p *Pipeline, it Iterator) Iterator {
	st := &OpStats{}
	p.Ops = append(p.Ops, st)
	return &statsIter{in: &source{Iterator: it, st: st, life: p.Life}, st: st}
}

func TestAccountantReserveRelease(t *testing.T) {
	a := NewAccountant(1000)
	if !a.Reserve(600) || !a.Reserve(400) {
		t.Fatal("reservations within the limit refused")
	}
	if a.Reserve(1) {
		t.Fatal("reservation past the limit granted")
	}
	a.Release(400)
	if got := a.Used(); got != 600 {
		t.Fatalf("used %d, want 600", got)
	}
	if !a.Reserve(400) {
		t.Fatal("reservation refused after release")
	}
	var untracked *Accountant
	if !untracked.Reserve(1 << 40) {
		t.Fatal("nil accountant must grant everything")
	}
}

func TestAccountantConcurrent(t *testing.T) {
	a := NewAccountant(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if a.Reserve(8) {
					a.Release(8)
				}
			}
		}()
	}
	wg.Wait()
	if got := a.Used(); got != 0 {
		t.Fatalf("%d bytes still reserved after all goroutines released", got)
	}
}

// rowBufBytes is what a rowBuf holding n rows has been charged: each
// doubling of its capacity, from rowBufMin up to the first that holds n.
func rowBufBytes(n int) int64 {
	var b int64
	for c := rowBufMin; n > 0; c *= 2 {
		b += int64(c) * rowHeaderBytes
		if c >= n {
			break
		}
	}
	return b
}

// TestBudgetHashJoinBuild: a hash join over an endless build side hits
// the budget inside the drain, not after it — the drain buffer is
// charged as it doubles, so a budget of 1,024 rows' buffer refuses the
// 1,025th row — closes its input, leaves nothing charged after Close,
// and returns the pooled drain buffer cleared, after an error and after
// a panic alike.
func TestBudgetHashJoinBuild(t *testing.T) {
	acct := NewAccountant(0) // track only
	p := &Pipeline{Life: &Life{budget: Budget{MaxBytes: rowBufBytes(1024)}, acct: acct}}
	right := &closeCounter{Iterator: &counter{}}
	join := NewJoin(plan.HashJoin, wrapped(p, &counter{}), right, 0, 0, p.Life)
	p.Root = wrapped(p, join)
	_, err := p.ExecuteContext(context.Background())
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want budget exceeded", err)
	}
	if right.pulled != 1025 || right.closed != 1 {
		t.Errorf("build pulled %d rows and closed its input %d times, want 1025 and 1", right.pulled, right.closed)
	}
	if got := acct.Used(); got != 0 || p.Life.HeldBytes() != 0 {
		t.Fatalf("%d bytes still reserved, %d held after the pipeline failed", got, p.Life.HeldBytes())
	}

	boom := &closeCounter{Iterator: &counter{}, panicAt: 500}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the build swallowed its input's panic")
			}
		}()
		_, _ = buildHash(boom, 0, nil)
	}()
	if boom.closed != 1 {
		t.Errorf("panicking input closed %d times, want 1", boom.closed)
	}
	// Whatever buffers the pool hands out next pin no row.
	for i := 0; i < 4; i++ {
		buf := drainPool.Get()
		defer drainPool.Put(buf)
		for _, r := range (*buf)[:cap(*buf)] {
			if r != nil {
				t.Fatal("a pooled drain buffer still references a row")
			}
		}
	}
}

// closeCounter counts what a consumer pulls and how often it closes,
// and panics on the panicAt'th pull when set.
type closeCounter struct {
	Iterator
	pulled, closed, panicAt int
}

func (c *closeCounter) Next() (Row, bool, error) {
	c.pulled++
	if c.pulled == c.panicAt {
		panic("boom")
	}
	return c.Iterator.Next()
}

func (c *closeCounter) Close() error { c.closed++; return c.Iterator.Close() }

// TestBudgetSort does the same for a sort's input buffer.
func TestBudgetSort(t *testing.T) {
	p := &Pipeline{Life: &Life{budget: Budget{MaxBytes: 1 << 14}}}
	p.Root = wrapped(p, &Sort{In: wrapped(p, &counter{}), Keys: []int{0}, Life: p.Life})
	if _, err := p.ExecuteContext(context.Background()); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want budget exceeded", err)
	}
}

// TestBudgetMergeJoinGroup: a merge join buffering one endless
// duplicate group on the right must hit the budget, not OOM.
func TestBudgetMergeJoinGroup(t *testing.T) {
	dup := make([]Row, 100000)
	for i := range dup {
		dup[i] = Row{7, int64(i)}
	}
	p := &Pipeline{Life: &Life{budget: Budget{MaxBytes: rowBufBytes(1000)}}}
	join := NewJoin(plan.MergeJoin, wrapped(p, NewScan([]Row{{7, 0}}, nil)), wrapped(p, NewScan(dup, nil)), 0, 0, p.Life)
	p.Root = wrapped(p, join)
	if _, err := p.ExecuteContext(context.Background()); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want budget exceeded", err)
	}
}

// TestMergeJoinGroupRelease is the flip side: many small duplicate
// groups must stream through a budget that could never hold them all
// at once, because every group reuses the one buffer, charged once.
// The budget is that buffer and the chunks of 512 to 4,096 int64s the
// join's 2,000 three-column output rows are carved from.
func TestMergeJoinGroupRelease(t *testing.T) {
	const groups, per = 500, 4
	var left, right []Row
	for k := int64(0); k < groups; k++ {
		left = append(left, Row{k})
		for j := int64(0); j < per; j++ {
			right = append(right, Row{k, j})
		}
	}
	p := &Pipeline{Life: &Life{budget: Budget{MaxBytes: rowBufBytes(2*per) + 8*(512+1024+2048+4096)}}}
	join := NewJoin(plan.MergeJoin, wrapped(p, NewScan(left, nil)), wrapped(p, NewScan(right, nil)), 0, 0, p.Life)
	p.Root = wrapped(p, join)
	out, err := p.ExecuteContext(context.Background())
	if err != nil {
		t.Fatalf("rolling groups within budget failed: %v", err)
	}
	if len(out) != groups*per {
		t.Fatalf("got %d rows, want %d", len(out), groups*per)
	}
	if held := p.Life.HeldBytes(); held != 0 {
		t.Fatalf("%d bytes still held after success", held)
	}
}

// openFault is a scan whose Open panics or fails, as set.
type openFault struct {
	scan
	panics bool
}

var errOpenFault = errors.New("open failed")

func (o *openFault) Open() error {
	if o.panics {
		panic("injected operator bug")
	}
	return errOpenFault
}

// TestMergeJoinOpenPanicClosesLeft: when the right input's Open panics
// (or fails) the left input, already open, is closed by the Close the
// caller of Open owes — through every operator above the join that
// guards its child's Close with an opened flag, none of which may skip
// a child whose Open never returned.
func TestMergeJoinOpenPanicClosesLeft(t *testing.T) {
	rows := []Row{{1}, {2}}
	above := map[string]func(Iterator) Iterator{
		"bare":           func(in Iterator) Iterator { return in },
		"Limit":          func(in Iterator) Iterator { return &Limit{In: in, N: 1} },
		"HashJoin":       func(in Iterator) Iterator { return NewJoin(plan.HashJoin, in, NewScan(rows, nil), 0, 0, nil) },
		"NestedLoopJoin": func(in Iterator) Iterator { return NewJoin(plan.NestedLoopJoin, in, NewScan(rows, nil), 0, 0, nil) },
		"MergeJoin":      func(in Iterator) Iterator { return NewJoin(plan.MergeJoin, in, NewScan(rows, nil), 0, 0, nil) },
		"GroupHash":      func(in Iterator) Iterator { return &GroupHash{In: in, Keys: []int{0}} },
		"GroupSorted":    func(in Iterator) Iterator { return &GroupSorted{In: in, Keys: []int{0}} },
		"Sort":           func(in Iterator) Iterator { return &Sort{In: in, Keys: []int{0}} },
	}
	for name, wrap := range above {
		for _, panics := range []bool{true, false} {
			var opened, closed atomic.Int64
			left := closeCount{Iterator: openCount{Iterator: NewScan(rows, nil), opened: &opened}, closed: &closed}
			p := &Pipeline{Life: &Life{}}
			p.Root = wrapped(p, wrap(wrapped(p, NewJoin(plan.MergeJoin, left, &openFault{panics: panics}, 0, 0, nil))))
			func() {
				defer func() {
					if v := recover(); (v != nil) != panics {
						t.Errorf("%s: recovered %v, panics = %v", name, v, panics)
					}
				}()
				if _, err := p.ExecuteContext(context.Background()); !errors.Is(err, errOpenFault) {
					t.Errorf("%s: pipeline returned %v, want the right input's Open error", name, err)
				}
			}()
			if opened.Load() != 1 || closed.Load() == 0 {
				t.Errorf("%s (panics = %v): left input opened %d times, closed %d; want opened once and closed",
					name, panics, opened.Load(), closed.Load())
			}
		}
	}
}

// TestCancelDuringExecute cancels pipelines mid-flight from another
// goroutine — several at once, sharing one accountant — and checks
// each aborts with the canceled error within a bounded time and
// releases what it held.
func TestCancelDuringExecute(t *testing.T) {
	acct := NewAccountant(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &Pipeline{Life: &Life{acct: acct}}
			// dropAll drops every row so collect accumulates nothing;
			// the stats wrapper under it still ticks the lifecycle.
			p.Root = wrapped(p, dropAll{wrapped(p, &counter{})})
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(5 * time.Millisecond)
				cancel()
			}()
			done := make(chan error, 1)
			go func() {
				_, err := p.ExecuteContext(ctx)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrCanceled) {
					t.Errorf("got %v, want canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Error("cancellation never reached the pipeline")
			}
		}()
	}
	wg.Wait()
	if got := acct.Used(); got != 0 {
		t.Fatalf("%d bytes still reserved after cancellation", got)
	}
}

// TestDeadlineMidMergeJoin lets a deadline expire while a merge join
// is streaming and checks the abort is prompt and closes both inputs.
func TestDeadlineMidMergeJoin(t *testing.T) {
	var closed atomic.Int64
	p := &Pipeline{Life: &Life{}}
	join := NewJoin(plan.MergeJoin, closeCount{wrapped(p, &counter{}), &closed}, closeCount{wrapped(p, &counter{}), &closed}, 0, 0, p.Life)
	p.Root = wrapped(p, dropAll{wrapped(p, join)})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	begin := time.Now()
	_, err := p.ExecuteContext(ctx)
	elapsed := time.Since(begin)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline of 10ms honored only after %v", elapsed)
	}
	if got := closed.Load(); got != 2 {
		t.Fatalf("join inputs closed %d times after abort, want 2", got)
	}
}

// TestExecuteContextDeadPipeline: a context dead before execution must
// fail the pipeline before any operator opens.
func TestExecuteContextDeadPipeline(t *testing.T) {
	var closed atomic.Int64
	p := &Pipeline{Life: &Life{}}
	p.Root = closeCount{wrapped(p, &counter{}), &closed}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ExecuteContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want canceled", err)
	}
	if p.Ops[0].Rows != 0 {
		t.Fatal("pipeline ran under a context that was dead on arrival")
	}
}

var errFailAfter = errors.New("input failed")

const (
	topKSQL      = "select * from orders, customer where o_custkey = c_custkey order by o_orderkey limit 10"
	orderFlowSQL = "select * from customer, orders, lineitem where l_orderkey = o_orderkey and o_custkey = c_custkey order by o_orderkey"
)

// mirror is one query run under the charging rule's identity: the
// accountant, which carries nothing else, holds max(HeldBytes, reserve)
// for the query at every Next of every operator (mirrorOp). It records
// the most the query held and counts the Nexts, and stops the query at
// the stop'th: with errFailAfter, or through cancel when that is set.
type mirror struct {
	t                 *testing.T
	what              string
	reserve           int64
	acct              *Accountant
	life              *Life
	peak, nexts, stop int64
	cancel            context.CancelFunc
}

type mirrorOp struct {
	Iterator
	m *mirror
}

func (o mirrorOp) Next() (Row, bool, error) {
	m := o.m
	m.check()
	m.peak = max(m.peak, m.life.HeldBytes())
	if m.nexts++; m.nexts == m.stop {
		if m.cancel == nil {
			return nil, false, errFailAfter
		}
		m.cancel()
	}
	return o.Iterator.Next()
}

func (m *mirror) check() {
	if used, held := m.acct.Used(), m.life.HeldBytes(); used != max(held, m.reserve) {
		m.t.Fatalf("%s: the accountant carries %d bytes for %d held over a %d reserve", m.what, used, held, m.reserve)
	}
}

// mirrorEnd checks the identity when its input's stream has ended: an
// exchange's workers have all charged, and are quiet, by then.
type mirrorEnd struct {
	Iterator
	m *mirror
}

func (e mirrorEnd) Next() (Row, bool, error) {
	row, ok, err := e.Iterator.Next()
	if !ok && err == nil {
		e.m.check()
	}
	return row, ok, err
}

// run executes best over ds as m's query under a fresh accountant of
// the given limit, checked at every Next (hooked) or at the end of the
// stream, and checks that the accountant and the Life both read 0 once
// the pipeline has ended.
func (m *mirror) run(ctx context.Context, ds *Dataset, a *query.Analysis, best *plan.Node, budget, limit int64, hooked bool) error {
	m.t.Helper()
	m.acct = NewAccountant(limit)
	r := ds.Runner(a)
	r.Budget.MaxBytes, r.Accountant, r.MaxDOP = budget, m.acct, 2
	if hooked {
		r.Hook = func(_, _ string, it Iterator, _ *Life) Iterator { return mirrorOp{it, m} }
	}
	p, err := r.Compile(best)
	if err != nil {
		m.t.Fatal(err)
	}
	m.life = p.Life
	if !hooked {
		p.Root = mirrorEnd{p.Root, m}
	}
	if m.reserve > 0 {
		if !m.acct.Reserve(m.reserve) {
			m.t.Fatal("the reserve does not fit")
		}
		p.AdoptLease(m.reserve)
	}
	_, err = p.ExecuteContext(ctx)
	if used, held := m.acct.Used(), p.Life.HeldBytes(); used != 0 || held != 0 {
		m.t.Errorf("%s: %d bytes reserved, %d held after the pipeline ended (%v)", m.what, used, held, err)
	}
	return err
}

// TestAccountantMirrorsCharge pins how a query charges the shared
// accountant (Life.hold): at every Next of every operator of the Q8,
// order-flow and top-k pipelines the accountant carries exactly
// max(HeldBytes, reserve) — with no reserve, with an adopted one, and
// under a per-query budget or a memory limit that trips — and after
// every way a pipeline ends (success, a budget or limit trip, a failed
// input, a cancelled or dead context) both read 0. At DOP 2 the
// exchange's workers charge while the consumer runs, so the identity is
// checked where they are quiet: at the end of the stream, and after it;
// and eight goroutines charging one Life, as workers do, leave it exact.
func TestAccountantMirrorsCharge(t *testing.T) {
	const reserve = 64 << 10
	reg := TPCRLazyRegistry()
	bg := context.Background()
	for _, w := range []struct{ name, sql, dataset string }{
		{"q8", tpcr.Query8SQL, "tpcr-mid"},
		{"orderflow", orderFlowSQL, "tpcr-large"},
		{"topk", topKSQL, "tpcr-large"},
	} {
		ds, _ := reg.Get(w.dataset)
		a, best := planServed(t, sqlGraph(t, w.sql))
		m := func(what string, reserve int64) *mirror {
			return &mirror{t: t, what: w.name + ", " + what, reserve: reserve}
		}
		ends := func(what string, got, want error) {
			t.Helper()
			if !errors.Is(got, want) {
				t.Errorf("%s, %s: %v, want %v", w.name, what, got, want)
			}
		}
		ok := m("no reserve", 0)
		ends("no reserve", ok.run(bg, ds, a, best, 0, 0, true), nil)
		if ok.peak == 0 {
			t.Fatalf("%s charged nothing", w.name)
		}
		half := ok.peak / 2
		ends("adopted reserve", m("adopted reserve", reserve).run(bg, ds, a, best, 0, 0, true), nil)
		ends("budget", m("budget", 0).run(bg, ds, a, best, half, 0, true), ErrBudgetExceeded)
		ends("budget, adopted reserve", m("budget, adopted reserve", reserve).run(bg, ds, a, best, half, 0, true), ErrBudgetExceeded)
		ends("limit", m("limit", 0).run(bg, ds, a, best, 0, half, true), ErrBudgetExceeded)
		failing := m("failed input", 0)
		failing.stop = ok.nexts / 2
		ends("failed input", failing.run(bg, ds, a, best, 0, 0, true), errFailAfter)
		ctx, cancel := context.WithCancel(bg)
		canceling := m("cancelled", reserve)
		canceling.stop, canceling.cancel = ok.nexts/2, cancel
		ends("cancelled", canceling.run(ctx, ds, a, best, 0, 0, true), context.Canceled)
		ends("dead context", m("dead context", reserve).run(ctx, ds, a, best, 0, 0, true), context.Canceled)
	}

	for _, w := range []struct {
		name, dataset string
		graph         func() (*catalog.Catalog, *query.Graph, error)
	}{
		{"q8 at DOP 2", "tpcr-mid", tpcr.Query8Graph},
		{"orderflow at DOP 2", "tpcr-large", tpcr.OrderStreamGraph},
	} {
		ds, _ := reg.Get(w.dataset)
		_, g, err := w.graph()
		if err != nil {
			t.Fatal(err)
		}
		a, best := planParallel(t, ds, g, 2)
		if findOp(best, plan.ExchangeMerge) == nil {
			t.Fatalf("%s: no exchange in the plan:\n%s", w.name, best)
		}
		ok := &mirror{t: t, what: w.name}
		if err := ok.run(bg, ds, a, best, 0, 0, false); err != nil {
			t.Fatal(err)
		}
		if err := (&mirror{t: t, what: w.name + ", adopted reserve", reserve: reserve}).run(bg, ds, a, best, 0, 0, false); err != nil {
			t.Fatal(err)
		}
		tight := &mirror{t: t, what: w.name + ", budget"}
		if err := tight.run(bg, ds, a, best, 1<<10, 0, false); !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%s under a 1 KiB budget: %v, want ErrBudgetExceeded", w.name, err)
		}
	}

	acct := NewAccountant(reserve + 1<<20)
	acct.Reserve(reserve)
	life := &Life{acct: acct, reserve: reserve}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if err := life.hold(1 << 10); err != nil {
					if !errors.Is(err, ErrBudgetExceeded) {
						t.Error(err)
					}
				} else if i%2 == 1 {
					life.release(1 << 10)
				}
			}
		}()
	}
	wg.Wait()
	if used, held := acct.Used(), life.HeldBytes(); held == 0 || used != max(held, reserve) {
		t.Errorf("one Life charged from 8 goroutines: the accountant carries %d bytes for %d held over a %d reserve", used, held, reserve)
	}
	life.releaseAll()
	if acct.Used() != 0 {
		t.Errorf("%d bytes reserved after releaseAll", acct.Used())
	}
}

// TestChargeIsAllocation pins what the rule charges. A Sort over 1,000
// two-column scan rows is charged its run's doublings alone, 8 to 1,024
// row headers: 2,040 × 24 = 48,960 bytes, the rows being the scan's.
// Over a hash join of those rows with a 100-row build keyed 0..99 it is
// charged besides the build's drain buffer (8 to 128 headers, 5,952
// bytes) and dense table (101 bucket bounds and 100 headers, 2,804
// bytes), and the chunks its 1,000 four-column rows were carved from:
// 512, 1,024, 2,048 and 4,096 int64s, 61,440 bytes. That is 119,156 in
// all. GroupHash over the scan rows' 100 keys is charged its table's
// doublings, 8 to 128 groups of groupSlotBytes (120) each: 29,760.
func TestChargeIsAllocation(t *testing.T) {
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = Row{int64(i % 100), int64(i)}
	}
	build := rows[:100]
	for _, c := range []struct {
		name string
		op   func(*Life) Iterator
		want int64
	}{
		{"a Sort over a scan", func(l *Life) Iterator {
			return &Sort{In: NewScan(rows, nil), Keys: []int{1}, Life: l}
		}, 48_960},
		{"a Sort over a hash join", func(l *Life) Iterator {
			join := NewJoin(plan.HashJoin, NewScan(rows, nil), NewScan(build, nil), 0, 0, l)
			return &Sort{In: join, Keys: []int{1}, Life: l}
		}, 119_156},
		{"GroupHash over a scan", func(l *Life) Iterator {
			return &GroupHash{In: NewScan(rows, nil), Keys: []int{0}, Life: l}
		}, 29_760},
	} {
		life := &Life{}
		op := c.op(life)
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		if got := life.HeldBytes(); got != c.want {
			t.Errorf("%s holds %d bytes, want %d", c.name, got, c.want)
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		life.releaseAll()
	}
}

// TestPooledBuffersPinNoRow: a Sort's run and sort scratch and a hash
// join's per-execution build table go back to their pools at Close
// cleared of row headers, like buildHash's drain buffer
// (TestBudgetHashJoinBuild), so no pooled array keeps a finished
// query's rows alive; and the arena's bookkeeping, each pooled
// allocator's list of the chunks it took, is cleared at releaseAll, so
// a finished pipeline references no chunk the pools hand out again.
func TestPooledBuffersPinNoRow(t *testing.T) {
	pinsNone := func(what string, rows []Row) {
		t.Helper()
		for _, r := range rows[:cap(rows)] {
			if r != nil {
				t.Fatalf("a pooled %s still references a row", what)
			}
		}
	}
	rows := sortInput(2000, 597)
	recycled := 0
	for i := 0; i < 8; i++ {
		if _, err := collect(&Sort{In: NewScan(rows, nil), Keys: []int{0, 1}}); err != nil {
			t.Fatal(err)
		}
		join := NewJoin(plan.HashJoin, NewScan(rows[:10], nil), NewScan(rows, nil), 0, 0, nil)
		if out, err := collect(join); err != nil || len(out) == 0 {
			t.Fatalf("%d rows, %v", len(out), err)
		}
		b := sortPool.Get()
		pinsNone("sort run", b.run)
		pinsNone("sort scratch", b.tmp)
		hv := hashPool.Get()
		pinsNone("build table", hv.rows)
		if cap(b.run) > 0 && cap(hv.rows) > 0 {
			recycled++
		}
	}
	if recycled == 0 {
		t.Error("Close never returned the Sort's run and the join's table to their pools")
	}

	a, top := mergeRightJoin(t)
	p, err := tpcrScaled(1).Runner(a).Compile(top)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(); err != nil {
		t.Fatal(err)
	}
	took := 0
	for _, al := range p.Life.arena {
		for _, ch := range al.taken[:cap(al.taken)] {
			if ch != nil {
				t.Fatal("the arena's bookkeeping still references a chunk after releaseAll")
			}
		}
		took += cap(al.taken)
	}
	if took == 0 {
		t.Error("the pipeline's arena never took a chunk")
	}
}

// TestScanCancelPollBound: a scan polls its Life every
// CancelCheckInterval rows it reads, kept or not, so a predicate that
// rejects every row cannot hide a cancellation from it; and a quiesced
// Life ends it at its next poll, without an error.
func TestScanCancelPollBound(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	life := &Life{}
	if err := life.bind(ctx); err != nil {
		t.Fatal(err)
	}
	read := 0
	rejectAll := func(Row) bool {
		if read++; read == 1 {
			cancel()
		}
		return false
	}
	_, err := collect(&scan{rows: meterRows(100_000), pred: rejectAll, life: life})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("scan returned %v after %d rows, want the cancellation", err, read)
	}
	if read > CancelCheckInterval {
		t.Errorf("cancel observed %d rows in, want at most %d", read, CancelCheckInterval)
	}

	quiet := &Life{}
	quiet.quiesce()
	rows, err := collect(&scan{rows: meterRows(1000), life: quiet})
	if err != nil || len(rows) != CancelCheckInterval-1 {
		t.Errorf("a quiesced scan handed out %d rows and %v, want %d and no error", len(rows), err, CancelCheckInterval-1)
	}
}

// TestCursorCancelPollBound: a join's fan-out makes rows no scan reads,
// so a spine's cursor polls its Life every CancelCheckInterval rows it
// emits. One driving row fans out into 4·CancelCheckInterval matches,
// through a hash bucket and through a nested-loop inner, after an
// earlier driving row left the cursor's count at before; the context
// dies as that row leaves its scan. No stats wrapper is compiled, and at
// DOP 2 the fan-out runs in an exchange worker, ahead of the root loop.
func TestCursorCancelPollBound(t *testing.T) {
	cat := catalog.New()
	for _, name := range []string{"d", "f"} {
		cat.MustAdd(&catalog.Table{Name: name,
			Columns: []catalog.Column{{Name: name + "_k", Type: catalog.Int}, {Name: name + "_v", Type: catalog.Int}}})
	}
	td, _ := cat.Table("d")
	tf, _ := cat.Table("f")
	g := &query.Graph{}
	rd, rf := g.AddRelation("d", td), g.AddRelation("f", tf)
	if err := g.AddJoin(query.ColumnRef{Rel: rd, Col: 0}, query.ColumnRef{Rel: rf, Col: 0}); err != nil {
		t.Fatal(err)
	}
	a, err := query.Analyze(g, query.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const fanOut = 4 * CancelCheckInterval
	for _, op := range []plan.Op{plan.HashJoin, plan.NestedLoopJoin} {
		for _, dop := range []int{1, 2} {
			for _, before := range []int{0, 1, 100, CancelCheckInterval - 1, CancelCheckInterval, 1000} {
				name := fmt.Sprintf("%v/dop%d/before%d", op, dop, before)
				data := map[string][][]int64{"d": {{1, 0}, {2, 0}}}
				for j := 0; j < before+fanOut; j++ {
					k := int64(1)
					if j >= before {
						k = 2
					}
					data["f"] = append(data["f"], []int64{k, int64(j)})
				}
				ctx, cancel := context.WithCancel(context.Background())
				r := NewDataset("fan", "fan-out fixture", cat, data).Runner(a)
				r.DisableTiming, r.MaxDOP = true, dop
				r.Hook = func(op, detail string, it Iterator, _ *Life) Iterator {
					if detail != "d" {
						return it
					}
					return &cancelOnKey{Iterator: it, key: 2, cancel: cancel}
				}
				best := &plan.Node{Op: op,
					Left: &plan.Node{Op: plan.TableScan, Rel: rd}, Right: &plan.Node{Op: plan.TableScan, Rel: rf}}
				if dop > 1 {
					best = &plan.Node{Op: plan.ExchangeMerge, DOP: dop, Left: best}
				}
				p, err := r.Compile(best)
				if err != nil {
					t.Fatal(err)
				}
				_, err = p.ExecuteContext(ctx)
				cancel()
				if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: pipeline returned %v, want the cancellation", name, err)
				}
				join := p.Ops[len(p.Ops)-3]
				if join.Op != op.String() {
					t.Fatalf("%s: entry %+v is not the join's", name, join)
				}
				if after := join.Rows - int64(before); after > CancelCheckInterval {
					t.Errorf("%s: the join emitted %d rows after the cancel, want at most %d", name, after, CancelCheckInterval)
				}
			}
		}
	}
}

// cancelOnKey cancels as it hands out a row whose column 0 is key.
type cancelOnKey struct {
	Iterator
	key    int64
	cancel context.CancelFunc
}

func (c *cancelOnKey) Next() (Row, bool, error) {
	row, ok, err := c.Iterator.Next()
	if ok && row[0] == c.key {
		c.cancel()
	}
	return row, ok, err
}
