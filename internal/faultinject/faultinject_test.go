package faultinject_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"orderopt/internal/catalog"
	"orderopt/internal/exec"
	"orderopt/internal/faultinject"
	"orderopt/internal/optimizer"
	"orderopt/internal/plan"
	"orderopt/internal/query"
	"orderopt/internal/tpcr"
)

// variant mirrors the execution experiment's planning configurations:
// the DFSM pipeline (merge joins, index orders, ordered grouping) and
// the order-oblivious one (hash joins, hash grouping, top sort), so
// the fault menu reaches both operator families.
type variant struct {
	name    string
	analyze query.AnalyzeOptions
	config  optimizer.Config
}

func variants() []variant {
	oblivious := optimizer.DefaultConfig(optimizer.ModeDFSM)
	oblivious.DisableMergeJoin = true
	oblivious.DisableOrderedGrouping = true
	parallel := optimizer.DefaultConfig(optimizer.ModeDFSM)
	parallel.MaxDOP = 4
	return []variant{
		{
			name:    "dfsm",
			analyze: query.AnalyzeOptions{UseIndexes: true, TrackGroupings: true},
			config:  optimizer.DefaultConfig(optimizer.ModeDFSM),
		},
		{
			name:    "oblivious",
			analyze: query.AnalyzeOptions{},
			config:  oblivious,
		},
		{
			// Parallel plans: the same fault menu must hold when the
			// faulted operator is a morsel instance inside an exchange
			// worker (error propagates across the worker boundary, hangs
			// unblock on cancellation/deadline, nothing leaks) and when
			// it is the exchange itself.
			name:    "parallel",
			analyze: query.AnalyzeOptions{UseIndexes: true, TrackGroupings: true},
			config:  parallel,
		},
	}
}

type workload struct {
	name string
	a    *query.Analysis
	best *plan.Node
	ds   *exec.Dataset
}

// workloads plans the TPC-R order-flow query (join + order by) and Q8
// (join + group by) over tpcr-small under the variant, yielding plans
// that between them contain scans, sorts, every join kind the variant
// allows and a grouping operator.
func workloads(t *testing.T, v variant) []workload {
	t.Helper()
	reg := exec.TPCRRegistry()
	ds, ok := reg.Get("tpcr-small")
	if !ok {
		t.Fatalf("tpcr-small dataset missing (have %v)", reg.Names())
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
		a, err := query.Analyze(g, v.analyze)
		if err != nil {
			t.Fatalf("%s analyze: %v", src.name, err)
		}
		res, err := optimizer.Optimize(a, v.config)
		if err != nil {
			t.Fatalf("%s optimize: %v", src.name, err)
		}
		out = append(out, workload{name: src.name, a: a, best: res.Best, ds: ds})
	}
	return out
}

// opRows executes the workload cleanly once and returns, per operator
// name, the max rows any instance emitted and the sum across
// instances — what decides which fault scenarios can fire at all.
func opRows(t *testing.T, w workload) (maxRows, sumRows map[string]int64) {
	t.Helper()
	r := w.ds.Runner(w.a)
	p, err := r.Compile(w.best)
	if err != nil {
		t.Fatalf("baseline compile: %v", err)
	}
	if _, err := p.Execute(); err != nil {
		t.Fatalf("baseline execute: %v", err)
	}
	maxRows, sumRows = map[string]int64{}, map[string]int64{}
	for _, st := range p.Ops {
		if st.Rows > maxRows[st.Op] {
			maxRows[st.Op] = st.Rows
		}
		sumRows[st.Op] += st.Rows
	}
	return maxRows, sumRows
}

// applicable reports whether the scenario's fault can fire given what
// the target operator actually emits: point faults (error, hang) need
// some instance to reach AtRow; a per-row delay only forces a deadline
// when the matched instances together sleep well past it.
func applicable(sc faultinject.Scenario, maxRows, sumRows int64) bool {
	at := sc.Fault.AtRow
	if at <= 0 {
		at = 1
	}
	switch sc.Fault.Kind {
	case faultinject.ErrorAt, faultinject.HangAt:
		return maxRows >= at
	case faultinject.Delay:
		return time.Duration(sumRows)*sc.Fault.Sleep >= 2*sc.Timeout
	}
	return false
}

// TestScenariosAcrossOperators is the harness's mechanical sweep: for
// every operator kind appearing in the planned pipelines of both
// variants, every applicable scenario of the standard fault menu must
// produce its declared outcome — the injected error propagates, the
// deadline or cancellation aborts the hang promptly — and every opened
// operator must be closed again despite the abort.
func TestScenariosAcrossOperators(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			covered := map[string]bool{}
			for _, w := range workloads(t, v) {
				maxRows, sumRows := opRows(t, w)
				for op := range maxRows {
					for _, sc := range faultinject.Scenarios(op) {
						if !applicable(sc, maxRows[op], sumRows[op]) {
							continue
						}
						covered[op] = true
						w, sc := w, sc
						t.Run(fmt.Sprintf("%s/%s/%s", w.name, op, sc.Name), func(t *testing.T) {
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
			var want []plan.Op
			switch v.name {
			case "dfsm":
				want = []plan.Op{plan.IndexScan, plan.MergeJoin}
			case "oblivious":
				want = []plan.Op{plan.TableScan, plan.HashJoin, plan.Sort, plan.GroupHash}
			case "parallel":
				want = []plan.Op{plan.ExchangeMerge, plan.MergeJoin}
			}
			for _, op := range want {
				if !covered[op.String()] {
					t.Errorf("fault sweep never reached %s (covered %v)", op, covered)
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
