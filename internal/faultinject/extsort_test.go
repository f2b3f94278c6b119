package faultinject_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"orderopt/internal/exec"
	"orderopt/internal/faultinject"
	"orderopt/internal/optimizer"
	"orderopt/internal/query"
	"orderopt/internal/tpcr"
)

// spillRunner plans the order-stream query order-obliviously (hash
// joins only, no index orders), so the plan carries a top Sort, and
// returns a runner that compiles that Sort as a spilling external sort
// with a tiny run bound — a handful of rows per run — into dir.
func spillRunner(t *testing.T, dir string) (*exec.Runner, *optimizer.Result) {
	t.Helper()
	reg := exec.TPCRRegistry()
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
	r.SpillBytes, r.SpillDir = 256, dir
	return r, res
}

func spillFiles(t *testing.T, dir string) int {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "extsort-*.run"))
	if err != nil {
		t.Fatal(err)
	}
	return len(names)
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

// TestExtSortMidSpillAbort aborts a query while its external sort has
// runs on disk — once by an injected mid-stream error in the join
// feeding the sort, once by cancelling the context while that join
// hangs, once by a panic in that join unwinding through the sort's Open.
// Either way the abort must propagate, every opened operator must be
// closed again (Tracker), and the spill directory must drain.
func TestExtSortMidSpillAbort(t *testing.T) {
	// A clean run establishes that the plan spills at this run bound and
	// how many rows the sort's feeding join emits, so the fault can be
	// pinned mid-drain.
	dir := t.TempDir()
	r, res := spillRunner(t, dir)
	p, err := r.Compile(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(); err != nil {
		t.Fatal(err)
	}
	if runs, _ := p.SpillStats(); runs < 2 {
		t.Fatalf("clean run spilled %d runs, want several at a 256-byte bound", runs)
	}
	// Two hash joins sit under the sort; the lower one drains during the
	// upper's build, before the sort sees a single row. Pin the fault to
	// the join directly feeding the sort — the one touching lineitem.
	const target = "HashJoin:lineitem"
	var joinRows int64
	for _, st := range p.Ops {
		if st.Op == "HashJoin" && strings.Contains(st.Detail, "lineitem") {
			joinRows = st.Rows
		}
	}
	if joinRows < 16 {
		t.Fatalf("join feeding the sort emitted %d rows, too few to fault mid-stream", joinRows)
	}
	if n := spillFiles(t, dir); n != 0 {
		t.Fatalf("%d spill files left after clean run", n)
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
			dir := t.TempDir()
			r, res := spillRunner(t, dir)
			tracker := &faultinject.Tracker{}
			hook := tc.hook
			if hook == nil {
				hook = faultinject.Hook(target, tc.fault)
			}
			r.Hook = faultinject.Compose(tracker.Hook(), hook)
			p, err := r.Compile(res.Best)
			if err != nil {
				t.Fatal(err)
			}
			err = tc.run(p)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			// The abort struck mid-drain: runs were already on disk.
			if runs, _ := p.SpillStats(); runs == 0 {
				t.Fatal("fault fired before any run spilled — not a mid-spill abort")
			}
			if tracker.Opened() == 0 {
				t.Fatal("tracker saw no opens")
			}
			if n := tracker.Leaked(); n != 0 {
				t.Fatalf("%d operators leaked after abort", n)
			}
			if n := spillFiles(t, dir); n != 0 {
				t.Fatalf("%d spill files left after abort", n)
			}
		})
	}
}
