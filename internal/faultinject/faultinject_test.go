package faultinject_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orderopt/internal/catalog"
	"orderopt/internal/conformance"
	"orderopt/internal/exec"
	"orderopt/internal/faultinject"
	"orderopt/internal/optimizer"
	"orderopt/internal/plan"
	"orderopt/internal/query"
	"orderopt/internal/tpcr"
)

// variants are the sweep's planning configurations, taken from the
// conformance corpus's idioms: the DFSM pipeline (merge joins, index
// orders, ordered grouping) and the order-oblivious one (hash joins,
// hash grouping, top sort), so the fault menu reaches both operator
// families, and the DFSM one at DOP 4: the same menu must hold when the
// faulted operator is a morsel's driving scan inside an exchange worker
// (the error crosses the worker boundary, hangs unblock on
// cancellation or deadline, nothing leaks) and when it is the exchange
// itself.
func variants() []conformance.Idiom {
	idioms := conformance.Idioms()
	dfsm, oblivious := idioms[0], idioms[2]
	parallel := dfsm
	parallel.Name = "parallel"
	parallel.Config.MaxDOP = 4
	return []conformance.Idiom{dfsm, oblivious, parallel}
}

type workload struct {
	name string
	a    *query.Analysis
	best *plan.Node
	ds   *exec.Dataset
}

// workloads plans the TPC-R order-flow query (join + order by) and Q8
// (join + group by) under the variant, yielding plans that between them
// contain scans, sorts, every join kind the variant allows and a
// grouping operator. They run over tpcr-small, or tpcr-mid when the
// variant plans exchanges: there a driving scan spans several morsels,
// so faults strike concurrent workers, and emits enough rows for every
// scenario of the menu to apply to it.
func workloads(t *testing.T, v conformance.Idiom) []workload {
	t.Helper()
	name := "tpcr-small"
	if v.Config.MaxDOP > 1 {
		name = "tpcr-mid"
	}
	reg := exec.TPCRLazyRegistry()
	ds, ok := reg.Get(name)
	if !ok {
		t.Fatalf("%s dataset missing (have %v)", name, reg.Names())
	}
	var out []workload
	for _, src := range []struct {
		name  string
		graph func() (*catalog.Catalog, *query.Graph, error)
	}{
		{"orders", tpcr.OrderStreamGraph},
		{"q8", tpcr.Query8Graph},
	} {
		_, g, err := src.graph()
		if err != nil {
			t.Fatalf("%s graph: %v", src.name, err)
		}
		// Plan against the catalog's SF-1 statistics, not the mini
		// dataset's: the big-table cost picture yields the merge/hash
		// pipelines the fault sweep is after, and execution itself is
		// statistics-independent.
		a, err := query.Analyze(g, v.Analyze)
		if err != nil {
			t.Fatalf("%s analyze: %v", src.name, err)
		}
		res, err := optimizer.Optimize(a, v.Config)
		if err != nil {
			t.Fatalf("%s optimize: %v", src.name, err)
		}
		out = append(out, workload{name: src.name, a: a, best: res.Best, ds: ds})
	}
	return out
}

// target is one fault target of the sweep with what its instances
// emitted in a clean run: the most any one emitted and their sum.
type target struct {
	name, sel        string // subtest label; Matches selector
	maxRows, sumRows int64
}

// countRows counts the rows one offered operator instance emits.
type countRows struct {
	exec.Iterator
	n *atomic.Int64
}

func (c countRows) Next() (exec.Row, bool, error) {
	row, ok, err := c.Iterator.Next()
	if ok {
		c.n.Add(1)
	}
	return row, ok, err
}

// targets executes the workload once under a recording hook — which,
// being a hook, disables what a hook disables, like the scenarios'
// own — and returns the operators the hook was actually offered: one
// target per operator name, and one pinned to each operator offered
// while the pipeline ran, which is an exchange's driving scan offered
// per morsel inside a worker ("morsel-<op>").
func targets(t *testing.T, w workload) []target {
	t.Helper()
	type instance struct {
		op, detail string
		morsel     bool
		rows       *atomic.Int64
	}
	var (
		mu        sync.Mutex
		instances []instance
		running   atomic.Bool
	)
	r := w.ds.Runner(w.a)
	r.Hook = func(op, detail string, it exec.Iterator, _ *exec.Life) exec.Iterator {
		in := instance{op: op, detail: detail, morsel: running.Load(), rows: new(atomic.Int64)}
		mu.Lock()
		instances = append(instances, in)
		mu.Unlock()
		return countRows{it, in.rows}
	}
	p, err := r.Compile(w.best)
	if err != nil {
		t.Fatalf("recording compile: %v", err)
	}
	running.Store(true)
	if _, err := p.Execute(); err != nil {
		t.Fatalf("recording execute: %v", err)
	}
	var out []target
	at := map[string]int{}
	add := func(name, sel string, rows int64) {
		i, ok := at[name]
		if !ok {
			i, at[name] = len(out), len(out)
			out = append(out, target{name: name, sel: sel})
		}
		out[i].maxRows = max(out[i].maxRows, rows)
		out[i].sumRows += rows
	}
	for _, in := range instances {
		add(in.op, in.op, in.rows.Load())
		if in.morsel {
			add("morsel-"+in.op, in.op+":"+in.detail, in.rows.Load())
		}
	}
	return out
}

// applicable reports whether the scenario's fault can fire given what
// the target's instances actually emit: point faults (error, hang) need
// some instance to reach AtRow; a per-row delay only forces a deadline
// when the matched instances together sleep well past it.
func applicable(sc faultinject.Scenario, tg target) bool {
	at := sc.Fault.AtRow
	if at <= 0 {
		at = 1
	}
	switch sc.Fault.Kind {
	case faultinject.ErrorAt, faultinject.HangAt:
		return tg.maxRows >= at
	case faultinject.Delay:
		return time.Duration(tg.sumRows)*sc.Fault.Sleep >= 2*sc.Timeout
	}
	return false
}

// TestScenariosAcrossOperators is the harness's mechanical sweep: for
// every operator the hook is offered in the planned pipelines of every
// variant, every applicable scenario of the standard fault menu must
// produce its declared outcome — the injected error propagates, the
// deadline or cancellation aborts the hang promptly — and every opened
// operator must be closed again despite the abort.
func TestScenariosAcrossOperators(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.Name, func(t *testing.T) {
			covered := map[string]bool{}
			for _, w := range workloads(t, v) {
				for _, tg := range targets(t, w) {
					for _, sc := range faultinject.Scenarios(tg.sel) {
						if !applicable(sc, tg) {
							continue
						}
						covered[tg.name] = true
						w, sc := w, sc
						t.Run(fmt.Sprintf("%s/%s/%s", w.name, tg.name, sc.Name), func(t *testing.T) {
							// Deadline scenarios assert wall-clock
							// promptness, so they run serially: the parallel
							// siblings stay parked in t.Parallel until every
							// serial subtest is done.
							if sc.Outcome != faultinject.WantTimeout {
								t.Parallel()
							}
							r := w.ds.Runner(w.a)
							err := sc.Run(r, func() (*exec.Pipeline, error) {
								return r.Compile(w.best)
							})
							if err != nil {
								t.Fatal(err)
							}
						})
					}
				}
			}
			var want []string
			switch v.Name {
			case "dfsm":
				want = []string{"IndexScan", "MergeJoin"}
			case "oblivious":
				want = []string{"TableScan", "HashJoin", "Sort", "GroupHash"}
			case "parallel":
				want = []string{"ExchangeMerge", "morsel-IndexScan"}
			}
			for _, name := range want {
				if !covered[name] {
					t.Errorf("fault sweep never reached %s (covered %v)", name, covered)
				}
			}
		})
	}
}

// sliceIter is a minimal iterator for wrapper-level tests.
type sliceIter struct {
	rows   []exec.Row
	pos    int
	opened bool
}

func (s *sliceIter) Open() error { s.pos = 0; s.opened = true; return nil }
func (s *sliceIter) Next() (exec.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}
func (s *sliceIter) Close() error { s.opened = false; return nil }

func threeRows() *sliceIter {
	return &sliceIter{rows: []exec.Row{{1}, {2}, {3}}}
}

func TestFaultErrorAt(t *testing.T) {
	it := faultinject.Fault{Kind: faultinject.ErrorAt, AtRow: 2}.Iter(threeRows(), nil)
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := it.Next(); err != nil || !ok {
		t.Fatalf("row 1: ok=%v err=%v", ok, err)
	}
	_, _, err := it.Next()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("row 2: got %v, want injected error", err)
	}
}

func TestHangWithoutContextFailsFast(t *testing.T) {
	it := faultinject.Fault{Kind: faultinject.HangAt, AtRow: 1}.Iter(threeRows(), nil)
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := it.Next()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("got %v, want injected error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hang fault blocked forever despite having no cancellable context")
	}
}

func TestMatches(t *testing.T) {
	cases := []struct {
		target, op, detail string
		want               bool
	}{
		{"*", "MergeJoin", "", true},
		{"mergejoin", "MergeJoin", "", true},
		{"HashJoin", "MergeJoin", "", false},
		{"IndexScan:orders", "IndexScan", "orders/orders_pk", true},
		{"IndexScan:lineitem", "IndexScan", "orders/orders_pk", false},
		{"*:orders", "TableScan", "orders", true},
		{"*:orders", "TableScan", "customer", false},
	}
	for _, c := range cases {
		if got := faultinject.Matches(c.target, c.op, c.detail); got != c.want {
			t.Errorf("Matches(%q, %q, %q) = %v, want %v", c.target, c.op, c.detail, got, c.want)
		}
	}
}

func TestTrackerCountsAndDoubleClose(t *testing.T) {
	tr := &faultinject.Tracker{}
	hook := tr.Hook()
	it := hook("TableScan", "orders", threeRows(), nil)
	if err := it.Close(); err != nil { // close before open: no-op for the count
		t.Fatal(err)
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Leaked(); got != 1 {
		t.Fatalf("after open: leaked %d, want 1", got)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil { // double close stays one count
		t.Fatal(err)
	}
	if got, opened := tr.Leaked(), tr.Opened(); got != 0 || opened != 1 {
		t.Fatalf("after close: leaked %d opened %d, want 0 and 1", got, opened)
	}
}

func TestDelayObservesCancellation(t *testing.T) {
	// A pipeline-level check of the interruptible sleep: one slice scan
	// behind a generous per-row delay, a short deadline.
	rows := make([]exec.Row, 64)
	for i := range rows {
		rows[i] = exec.Row{int64(i)}
	}
	in := &sliceIter{rows: rows}
	p := &exec.Pipeline{Life: &exec.Life{}}
	f := faultinject.Fault{Kind: faultinject.Delay, AtRow: 1, Sleep: 50 * time.Millisecond}
	p.Root = f.Iter(in, p.Life)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	begin := time.Now()
	_, err := p.ExecuteContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(begin); elapsed > 500*time.Millisecond {
		t.Fatalf("slept through the deadline: %v", elapsed)
	}
}
