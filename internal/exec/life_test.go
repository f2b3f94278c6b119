package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// openCount counts Open calls through to its input.
type openCount struct {
	Iterator
	opened *atomic.Int64
}

func (o openCount) Open() error {
	o.opened.Add(1)
	return o.Iterator.Open()
}

// wrapped attaches a stats wrapper — the pipeline's cancellation
// seam — to it, the way Runner.Compile does.
func wrapped(p *Pipeline, it Iterator) Iterator {
	st := &OpStats{}
	p.Ops = append(p.Ops, st)
	return &statsIter{in: it, st: st, life: p.Life, timing: true}
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

// TestBudgetHashJoinBuild: a hash join over an endless build side hits
// the budget inside the drain, not after it — the CSR build charges row
// by row like the map build did — closes its input, leaves nothing
// charged after Close, and returns the pooled drain buffer cleared,
// after an error and after a panic alike.
func TestBudgetHashJoinBuild(t *testing.T) {
	acct := NewAccountant(0) // track only
	p := &Pipeline{Life: &Life{budget: Budget{MaxBytes: 1000 * rowBytes(Row{0, 0})}, acct: acct}}
	right := &closeCounter{Iterator: &counter{}}
	join := &HashJoin{
		Left:     wrapped(p, &counter{}),
		Right:    right,
		LeftKey:  0,
		RightKey: 0,
		Life:     p.Life,
	}
	p.Root = wrapped(p, join)
	_, err := p.ExecuteContext(context.Background())
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want budget exceeded", err)
	}
	if right.pulled != 1001 || right.closed != 1 {
		t.Errorf("build pulled %d rows and closed its input %d times, want 1001 and 1", right.pulled, right.closed)
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
		_, _ = buildHash(boom, 0, func(Row) error { return nil })
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
	p := &Pipeline{Life: &Life{budget: Budget{MaxBytes: 1000 * rowBytes(Row{0, 0})}}}
	join := &MergeJoin{
		Left:     wrapped(p, NewScan([]Row{{7, 0}})),
		Right:    wrapped(p, NewScan(dup)),
		LeftKey:  0,
		RightKey: 0,
		Life:     p.Life,
	}
	p.Root = wrapped(p, join)
	if _, err := p.ExecuteContext(context.Background()); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want budget exceeded", err)
	}
}

// TestMergeJoinGroupRelease is the flip side: many small duplicate
// groups must stream through a budget that could never hold them all
// at once, because the join releases each group's charge before
// buffering the next.
func TestMergeJoinGroupRelease(t *testing.T) {
	const groups, per = 500, 4
	var left, right []Row
	for k := int64(0); k < groups; k++ {
		left = append(left, Row{k})
		for j := int64(0); j < per; j++ {
			right = append(right, Row{k, j})
		}
	}
	p := &Pipeline{Life: &Life{budget: Budget{MaxBytes: 2 * per * rowBytes(Row{0, 0})}}}
	join := &MergeJoin{
		Left:     wrapped(p, NewScan(left)),
		Right:    wrapped(p, NewScan(right)),
		LeftKey:  0,
		RightKey: 0,
		Life:     p.Life,
	}
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
	Scan
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
		"HashJoin":       func(in Iterator) Iterator { return &HashJoin{Left: in, Right: NewScan(rows)} },
		"NestedLoopJoin": func(in Iterator) Iterator { return &NestedLoopJoin{Outer: in, Inner: NewScan(rows)} },
		"MergeJoin":      func(in Iterator) Iterator { return &MergeJoin{Left: in, Right: NewScan(rows)} },
		"GroupHash":      func(in Iterator) Iterator { return &GroupHash{In: in, Keys: []int{0}} },
		"GroupSorted":    func(in Iterator) Iterator { return &GroupSorted{In: in, Keys: []int{0}} },
		"Sort":           func(in Iterator) Iterator { return &Sort{In: in, Keys: []int{0}} },
	}
	for name, wrap := range above {
		for _, panics := range []bool{true, false} {
			var opened, closed atomic.Int64
			left := closeCount{Iterator: openCount{Iterator: NewScan(rows), opened: &opened}, closed: &closed}
			p := &Pipeline{Life: &Life{}}
			p.Root = wrapped(p, wrap(wrapped(p, &MergeJoin{Left: left, Right: &openFault{panics: panics}})))
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
			// Filter drops every row so Collect accumulates nothing;
			// the stats wrapper under it still ticks the lifecycle.
			p.Root = wrapped(p, &Filter{
				In:   wrapped(p, &counter{}),
				Pred: func(Row) bool { return false },
			})
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
	join := &MergeJoin{
		Left:     closeCount{wrapped(p, &counter{}), &closed},
		Right:    closeCount{wrapped(p, &counter{}), &closed},
		LeftKey:  0,
		RightKey: 0,
		Life:     p.Life,
	}
	p.Root = wrapped(p, &Filter{In: wrapped(p, join), Pred: func(Row) bool { return false }})
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

// leaseWatch passes rows through and checks, before each, the lease
// bounds of the Life it watches: the lease covers what is held, goes
// over the high-water mark of held bytes by at most one step — a step
// being at most what the query held so far, and never over
// leaseMaxBytes — and the accountant stays within its limit.
type leaseWatch struct {
	Iterator
	t    *testing.T
	life *Life
	peak int64
}

func (w *leaseWatch) Next() (Row, bool, error) {
	held, lease := w.life.HeldBytes(), w.life.lease.Load()
	w.peak = max(w.peak, held)
	if step := min(max(w.peak, leaseMinBytes), leaseMaxBytes); lease < held || lease-w.peak > step {
		w.t.Errorf("lease %d with %d bytes held (peak %d): want it to cover them and exceed the peak by at most %d",
			lease, held, w.peak, step)
	}
	if a := w.life.acct; a.Limit() > 0 && a.Used() > a.Limit() {
		w.t.Errorf("accountant at %d bytes over its %d limit", a.Used(), a.Limit())
	}
	return w.Iterator.Next()
}

// leasedSort is a pipeline sorting n two-column rows (rowBytes 64 each)
// under a Life charging acct, its input watched by leaseWatch. fail,
// when positive, makes the input fail after that many rows.
func leasedSort(t *testing.T, acct *Accountant, n, fail int) (*Pipeline, *leaseWatch) {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{int64(i % 1000), int64(i)}
	}
	p := &Pipeline{Life: &Life{acct: acct}}
	var in Iterator = NewScan(rows)
	if fail > 0 {
		in = &failAfter{Iterator: in, n: fail}
	}
	w := &leaseWatch{Iterator: in, t: t, life: p.Life}
	p.Root = &Sort{In: w, Keys: []int{0}, Life: p.Life}
	return p, w
}

// failAfter fails its n+1'th pull.
type failAfter struct {
	Iterator
	n int
}

var errFailAfter = errors.New("input failed")

func (f *failAfter) Next() (Row, bool, error) {
	if f.n--; f.n < 0 {
		return nil, false, errFailAfter
	}
	return f.Iterator.Next()
}

// TestLeaseBounds pins how a query charges the shared accountant
// (Life.hold): in leases that never take it past its limit; a query
// that materializes exactly up to the limit still runs — the step that
// does not fit falls back to the exact shortfall — with or without the
// admission reserve adopted as its first lease, and one byte less
// fails; a running query reserves at most one step over its high-water
// mark of held bytes (leaseWatch), up to the 4 MiB cap, also when many
// goroutines charge one Life at once; and once every pipeline has
// ended, on success, on a failed input, on a dead context and on the
// budget, the accountant holds exactly the resident bytes again.
func TestLeaseBounds(t *testing.T) {
	const resident = 1 << 20
	per := rowBytes(Row{0, 0})
	withResident := func(limit int64) *Accountant {
		a := NewAccountant(limit)
		if !a.Reserve(resident) {
			t.Fatal("resident bytes do not fit")
		}
		return a
	}
	settled := func(what string, a *Accountant) {
		t.Helper()
		if a.Used() != resident {
			t.Fatalf("%s: accountant at %d bytes, want the %d resident", what, a.Used(), resident)
		}
	}

	// Past the cap: 6.4 MB held in steps of at most 4 MiB.
	acct := withResident(0)
	p, w := leasedSort(t, acct, 100_000, 0)
	if _, err := p.Execute(); err != nil {
		t.Fatal(err)
	}
	if w.peak < leaseMaxBytes {
		t.Fatalf("peak %d bytes held, want past the %d cap", w.peak, leaseMaxBytes)
	}
	settled("after a large sort", acct)

	const n = 5000 // 320 000 bytes: steps of 64, 64 and 128 KiB, then the exact rest
	for _, adopt := range []bool{false, true} {
		for _, slack := range []int64{0, -1} {
			acct := withResident(resident + n*per + slack)
			p, _ := leasedSort(t, acct, n, 0)
			if adopt {
				if !acct.Reserve(leaseMinBytes) {
					t.Fatal("admission reserve does not fit")
				}
				p.AdoptLease(leaseMinBytes)
			}
			_, err := p.Execute()
			if fits := slack == 0; fits != (err == nil) || !fits && !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("adopt=%v, limit %+d bytes from the exact fit: %v", adopt, slack, err)
			}
			settled(fmt.Sprintf("adopt=%v slack=%d", adopt, slack), acct)
		}
	}

	acct = withResident(0)
	p, _ = leasedSort(t, acct, n, n/2)
	if _, err := p.Execute(); !errors.Is(err, errFailAfter) {
		t.Fatalf("got %v, want the input's failure", err)
	}
	settled("after a failed input", acct)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, _ = leasedSort(t, acct, n, 0)
	acct.Reserve(leaseMinBytes)
	p.AdoptLease(leaseMinBytes)
	if _, err := p.ExecuteContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want canceled", err)
	}
	settled("after a pipeline that never opened", acct)

	// Concurrent queries of ~1 MiB each against 3 MiB: every one either
	// runs or fails on the budget, and none takes the accountant past
	// its limit.
	acct = withResident(resident + 3<<20)
	var wg sync.WaitGroup
	var ran, refused atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				p, _ := leasedSort(t, acct, 16_000, 0)
				switch _, err := p.Execute(); {
				case err == nil:
					ran.Add(1)
				case errors.Is(err, ErrBudgetExceeded):
					refused.Add(1)
				default:
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if ran.Load() == 0 {
		t.Errorf("no query ran (%d refused)", refused.Load())
	}
	settled("after concurrent queries", acct)

	// One Life charged from many goroutines, as morsel workers charge
	// their query's: extends race, and the lease still covers exactly
	// what the successful holds left charged, within one step.
	acct = withResident(resident + 3<<20)
	life := &Life{acct: acct}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if err := life.hold(1 << 10); err != nil && !errors.Is(err, ErrBudgetExceeded) {
					t.Error(err)
				}
				if acct.Used() > acct.Limit() {
					t.Errorf("accountant at %d bytes over its %d limit", acct.Used(), acct.Limit())
				}
			}
		}()
	}
	wg.Wait()
	held, lease := life.HeldBytes(), life.lease.Load()
	if held == 0 || lease < held || lease-held > min(max(held, leaseMinBytes), leaseMaxBytes) || acct.Used() != resident+lease {
		t.Errorf("shared Life: %d held, lease %d, accountant %d over %d resident", held, lease, acct.Used(), resident)
	}
	life.releaseAll()
	settled("after a shared Life's releaseAll", acct)
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
		if _, err := Collect(&Sort{In: NewScan(rows), Keys: []int{0, 1}}); err != nil {
			t.Fatal(err)
		}
		join := &HashJoin{Left: NewScan(rows[:10]), Right: NewScan(rows), LeftKey: 0, RightKey: 0}
		if out, err := Collect(join); err != nil || len(out) == 0 {
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
