package exec

import (
	"context"
	"errors"
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
		buf := drainPool.Get().(*[]Row)
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
