package faultinject_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"orderopt/internal/exec"
	"orderopt/internal/faultinject"
	"orderopt/internal/optimizer"
	"orderopt/internal/query"
	"orderopt/internal/tpcr"
)

// sortRunner plans the order-stream query order-obliviously (hash joins
// only, no index orders), so the plan carries a top Sort that drains the
// whole join stream in its Open, and returns a runner charging a shared
// tracking-only accountant.
func sortRunner(t *testing.T) (*exec.Runner, *optimizer.Result) {
	t.Helper()
	reg := exec.TPCRLazyRegistry()
	ds, ok := reg.Get("tpcr-small")
	if !ok {
		t.Fatalf("tpcr-small dataset missing (have %v)", reg.Names())
	}
	_, g, err := tpcr.OrderStreamGraph()
	if err != nil {
		t.Fatal(err)
	}
	a, err := query.Analyze(g, query.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := optimizer.DefaultConfig(optimizer.ModeDFSM)
	cfg.DisableMergeJoin = true
	cfg.DisableOrderedGrouping = true
	res, err := optimizer.Optimize(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := ds.Runner(a)
	r.Accountant = exec.NewAccountant(0)
	return r, res
}

// emitted returns the rows the first operator named op whose detail
// mentions detail emitted.
func emitted(t *testing.T, p *exec.Pipeline, op, detail string) int64 {
	t.Helper()
	for _, st := range p.Ops {
		if st.Op == op && strings.Contains(st.Detail, detail) {
			return st.Rows
		}
	}
	t.Fatalf("no %s operator on %q in the pipeline", op, detail)
	return 0
}

// panicAt panics at its at-th row: an operator bug striking inside the
// Open of whatever is draining it.
type panicAt struct {
	exec.Iterator
	at, n int64
}

func (p *panicAt) Next() (exec.Row, bool, error) {
	if p.n++; p.n == p.at {
		panic("injected operator bug")
	}
	return p.Iterator.Next()
}

var errPanicked = errors.New("pipeline panicked")

// heldGrowth records how far the pipeline's held bytes grew while rows
// were pulled through it. Wrapping the sort's input, growth past the
// first pull (the joins' build tables are charged by then) is what the
// sort held before the abort, so the held bytes and the accountant
// returning to 0 means the sort released it. It reads the hook's Life,
// the query's own charge, not the accountant it shares.
type heldGrowth struct {
	exec.Iterator
	life        *exec.Life
	first, peak int64
	pulled      bool
}

func (u *heldGrowth) Next() (exec.Row, bool, error) {
	n := u.life.HeldBytes()
	if !u.pulled {
		u.first, u.pulled = n, true
	}
	u.peak = max(u.peak, n)
	return u.Iterator.Next()
}

// TestSortMidDrainAbort aborts a query while its Sort is draining its
// input inside Open — once by an injected mid-stream error in the join
// feeding the sort, once by cancelling the context while that join
// hangs, once by a panic in that join unwinding through the sort's Open.
// Either way the abort must propagate, every opened operator must be
// closed again (Tracker), and every byte the sort held must be released:
// the pipeline's Life and the shared Accountant both return to 0.
func TestSortMidDrainAbort(t *testing.T) {
	// A clean run establishes how many rows the sort's feeding join
	// emits, so the fault can be pinned mid-drain.
	r, res := sortRunner(t)
	p, err := r.Compile(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(); err != nil {
		t.Fatal(err)
	}
	// Two hash joins sit under the sort; the lower one drains during the
	// upper's build, before the sort sees a single row. Pin the fault to
	// the join directly feeding the sort — the one touching lineitem.
	const target = "HashJoin:lineitem"
	joinRows := emitted(t, p, "HashJoin", "lineitem")
	if joinRows < 16 {
		t.Fatalf("join feeding the sort emitted %d rows, too few to fault mid-stream", joinRows)
	}
	if sorted := emitted(t, p, "Sort", ""); sorted != joinRows {
		t.Fatalf("clean run sorted %d rows, want the join's %d", sorted, joinRows)
	}
	at := joinRows / 2

	cases := []struct {
		name  string
		fault faultinject.Fault
		hook  exec.IterHook // instead of fault, when set
		run   func(p *exec.Pipeline) error
		want  error
	}{
		{
			name:  "error",
			fault: faultinject.Fault{Kind: faultinject.ErrorAt, AtRow: at},
			run: func(p *exec.Pipeline) error {
				_, err := p.Execute()
				return err
			},
			want: faultinject.ErrInjected,
		},
		{
			name:  "cancel",
			fault: faultinject.Fault{Kind: faultinject.HangAt, AtRow: at},
			run: func(p *exec.Pipeline) error {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				time.AfterFunc(20*time.Millisecond, cancel)
				_, err := p.ExecuteContext(ctx)
				return err
			},
			want: context.Canceled,
		},
		{
			name: "panic",
			hook: func(op, detail string, it exec.Iterator, life *exec.Life) exec.Iterator {
				if !faultinject.Matches(target, op, detail) {
					return it
				}
				return &panicAt{Iterator: it, at: at}
			},
			run: func(p *exec.Pipeline) (err error) {
				defer func() {
					if v := recover(); v != nil {
						err = fmt.Errorf("%w: %v", errPanicked, v)
					}
				}()
				_, err = p.Execute()
				return err
			},
			want: errPanicked,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, res := sortRunner(t)
			tracker := &faultinject.Tracker{}
			hook := tc.hook
			if hook == nil {
				hook = faultinject.Hook(target, tc.fault)
			}
			growth := &heldGrowth{}
			r.Hook = faultinject.Compose(tracker.Hook(), hook,
				func(op, detail string, it exec.Iterator, life *exec.Life) exec.Iterator {
					if !faultinject.Matches(target, op, detail) {
						return it
					}
					growth.Iterator, growth.life = it, life
					return growth
				})
			p, err := r.Compile(res.Best)
			if err != nil {
				t.Fatal(err)
			}
			err = tc.run(p)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			// The abort struck mid-drain: the sort held consumed join rows
			// but never finished its Open.
			if growth.peak <= growth.first {
				t.Fatal("fault fired before the sort held a row — not a mid-drain abort")
			}
			if n := emitted(t, p, "Sort", ""); n != 0 {
				t.Fatalf("sort emitted %d rows, want 0 after an abort inside its Open", n)
			}
			if tracker.Opened() == 0 {
				t.Fatal("tracker saw no opens")
			}
			if n := tracker.Leaked(); n != 0 {
				t.Fatalf("%d operators leaked after abort", n)
			}
			if n := p.Life.HeldBytes(); n != 0 {
				t.Fatalf("pipeline still holds %d bytes after abort", n)
			}
			if n := r.Accountant.Used(); n != 0 {
				t.Fatalf("shared accountant still holds %d bytes after abort", n)
			}
		})
	}
}
