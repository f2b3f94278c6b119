// The meter (statsIter's bursts, runner.go) must be invisible in
// everything but the clock-read count: the same rows in the same order,
// counters that nest, errors in their place in the stream. These tests
// hold compiled pipelines — the benchmark's three executing statements
// and the whole conformance corpus — to that, timing on against timing
// off. External package: faultinject and conformance import exec.
package exec_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"orderopt/internal/conformance"
	"orderopt/internal/exec"
	"orderopt/internal/faultinject"
	"orderopt/internal/optimizer"
	"orderopt/internal/plan"
	"orderopt/internal/planner"
	"orderopt/internal/query"
	"orderopt/internal/tpcr"
)

// servedPlan plans sql the way planserverd does: against the SF-1
// catalog, DFSM, auto tier, DOP 1.
func servedPlan(t *testing.T, sql string) (*query.Analysis, *plan.Node) {
	t.Helper()
	pd, _, err := planner.New(planner.DefaultConfig(tpcr.Schema())).PlanQueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	return pd.Origin.Analysis(), pd.Best
}

func tpcrDataset(t *testing.T, name string) *exec.Dataset {
	t.Helper()
	ds, ok := exec.TPCRLazyRegistry().Get(name)
	if !ok {
		t.Fatalf("no dataset %s", name)
	}
	return ds
}

// runMetered compiles and executes best with operator timing on or off.
func runMetered(t *testing.T, ds *exec.Dataset, a *query.Analysis, best *plan.Node, timing bool) (*exec.Pipeline, []exec.Row) {
	t.Helper()
	r := ds.Runner(a)
	r.DisableTiming = !timing
	p, err := r.Compile(best)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	return p, rows
}

// checkMeter runs best timed and untimed and checks what the meter
// promises: identical rows; every operator's TimeNs covering its
// children's; every operator's Rows equal to the untimed run's, except
// that under a Limit an operator may have been asked for up to
// meterBurstRows rows more than its consumer took, per wrapper between
// it and the Limit.
func checkMeter(t *testing.T, name string, ds *exec.Dataset, a *query.Analysis, best *plan.Node) (timed, untimed *exec.Pipeline) {
	t.Helper()
	const burst = 64 // exec.meterBurstRows
	timed, got := runMetered(t, ds, a, best, true)
	untimed, want := runMetered(t, ds, a, best, false)
	if !slices.EqualFunc(got, want, func(x, y exec.Row) bool { return slices.Equal(x, y) }) {
		t.Fatalf("%s: timing on delivers %d rows, timing off %d, or not the same ones in the same order", name, len(got), len(want))
	}
	next := 0
	// walk returns the node's inclusive time; ahead is how far the
	// node's Rows may run ahead of the untimed run's.
	var walk func(n *plan.Node, ahead int64) int64
	walk = func(n *plan.Node, ahead int64) int64 {
		st, ref := timed.Ops[next], untimed.Ops[next]
		next++
		if d := st.Rows - ref.Rows; d < 0 || d > ahead {
			t.Errorf("%s: %s %s emitted %d rows with timing on, %d with timing off (allowed ahead: %d)",
				name, st.Op, st.Detail, st.Rows, ref.Rows, ahead)
		}
		below := ahead
		switch {
		case n.Op == plan.Limit:
			below = 0 // the Limit's input is handed out row by row: exact
		case st.Limited:
			below = ahead + burst
		}
		var children int64
		for _, c := range []*plan.Node{n.Left, n.Right} {
			if c != nil {
				children += walk(c, below)
			}
		}
		if st.TimeNs < children {
			t.Errorf("%s: %s %s took %d ns, its children %d ns: self time is negative",
				name, st.Op, st.Detail, st.TimeNs, children)
		}
		if ref.TimeNs != 0 {
			t.Errorf("%s: %s %s reports %d ns with timing disabled", name, ref.Op, ref.Detail, ref.TimeNs)
		}
		return st.TimeNs
	}
	if total := walk(best, 0); total <= 0 {
		t.Errorf("%s: root reports %d ns with timing on", name, total)
	}
	if next != len(timed.Ops) {
		t.Fatalf("%s: walked %d plan nodes, pipeline has %d stats entries", name, next, len(timed.Ops))
	}
	return timed, untimed
}

const (
	topkSQL      = "select * from orders, customer where o_custkey = c_custkey order by o_orderkey limit 10"
	orderflowSQL = "select * from customer, orders, lineitem where l_orderkey = o_orderkey and o_custkey = c_custkey order by o_orderkey"
)

// TestMeterServedPipelines: the benchmark's three executing statements.
func TestMeterServedPipelines(t *testing.T) {
	for _, w := range []struct{ name, sql, dataset string }{
		{"q8_repeat", tpcr.Query8SQL, "tpcr-mid"},
		{"stream_orderflow", orderflowSQL, "tpcr-large"},
		{"topk_hot", topkSQL, "tpcr-large"},
	} {
		a, best := servedPlan(t, w.sql)
		checkMeter(t, w.name, tpcrDataset(t, w.dataset), a, best)
	}
}

// TestMeterConformanceCorpus: every fixture's canonical serial plan
// under each idiom. (The corpus's own matrix runs with timing disabled,
// so this is where it meets the bursts.)
func TestMeterConformanceCorpus(t *testing.T) {
	fixtures, err := conformance.Load("../conformance/testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fixtures {
		ds, q, err := conformance.Resolve(f)
		if err != nil {
			t.Fatal(err)
		}
		for idiom, idm := range conformance.Idioms() {
			a, err := query.Analyze(q.Graph, idm.Analyze)
			if err != nil {
				t.Fatal(err)
			}
			cell := conformance.Cell{Strategy: optimizer.StrategyExact, Idiom: idiom, DOP: 1, MergeJoin: true, OrderedGrouping: true}
			res, err := optimizer.Optimize(a, cell.Config())
			if err != nil {
				t.Fatalf("fixture %s cell %s: %v", f.Name, cell, err)
			}
			checkMeter(t, f.Name+"/"+idm.Name, ds, a, res.Best)
		}
	}
}

// TestMeterLimitLookAhead: a top-10 never leaves the warm-up, so every
// upstream counter is what it was before bursts existed; a top-1000
// stops each operator at most one burst per wrapper past where the
// untimed run stops it (checkMeter's allowance), and well short of its
// input.
func TestMeterLimitLookAhead(t *testing.T) {
	ds := tpcrDataset(t, "tpcr-large")
	for _, k := range []int{10, 1000} {
		sql := fmt.Sprintf("select * from orders, lineitem where l_orderkey = o_orderkey order by o_orderkey limit %d", k)
		a, best := servedPlan(t, sql)
		if best.Op != plan.Limit || best.Ops()[plan.Sort] != 0 {
			t.Fatalf("limit %d is no longer a sort-free pipeline under a Limit:\n%s", k, best)
		}
		timed, untimed := checkMeter(t, fmt.Sprintf("limit %d", k), ds, a, best)
		for i, st := range timed.Ops {
			if k == 10 && st.Rows != untimed.Ops[i].Rows {
				t.Errorf("limit 10: %s %s emitted %d rows, %d before bursts", st.Op, st.Detail, st.Rows, untimed.Ops[i].Rows)
			}
			if st.Rows > int64(k)+3*64 {
				t.Errorf("limit %d: %s %s ran to %d rows", k, st.Op, st.Detail, st.Rows)
			}
		}
	}
}

// TestMeterErrorOrder: an error an operator raises at its 101st row
// reaches the consumer after exactly the 100 rows before it — the burst
// that ran into it neither delivers it early nor drops it or the rows
// it had already buffered.
func TestMeterErrorOrder(t *testing.T) {
	runner, res := streamPlan(t, 1)
	runner.Hook = faultinject.Hook(res.Best.Op.String(), faultinject.Fault{Kind: faultinject.ErrorAt, AtRow: 101})
	p := mustCompile(t, runner, res)
	delivered := 0
	err := p.StreamContext(context.Background(), 1, func(batch []exec.Row) error {
		delivered += len(batch)
		return nil
	})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("stream returned %v, want the injected error", err)
	}
	if delivered != 100 {
		t.Errorf("the consumer saw %d rows before the error at row 101, want 100", delivered)
	}
	if root := p.Ops[0]; root.Rows != 100 {
		t.Errorf("root counted %d rows, want 100", root.Rows)
	}
}

// panicAt panics on its at-th Next.
type panicAt struct {
	exec.Iterator
	at, n int
}

func (p *panicAt) Next() (exec.Row, bool, error) {
	if p.n++; p.n == p.at {
		panic("injected operator bug")
	}
	return p.Iterator.Next()
}

// TestExchangeWorkerPanic: a panic inside a morsel worker — a goroutine
// no caller's recover covers — ends the query with an ordinary error
// naming the panic, with every operator closed, nothing left charged
// and no worker left running.
func TestExchangeWorkerPanic(t *testing.T) {
	runner, res := streamPlan(t, 2)
	if res.Best.Op != plan.ExchangeMerge {
		t.Fatalf("stream plan at DOP 2 has no exchange at its root:\n%s", res.Best)
	}
	// The driving scan — the one scan an exchange compiles with a DOP —
	// only ever runs as morsel instances inside workers.
	var driving *exec.OpStats
	for _, op := range mustCompile(t, runner, res).Ops {
		if op.DOP > 0 && strings.HasSuffix(op.Op, "Scan") {
			driving = op
		}
	}
	if driving == nil {
		t.Fatal("the exchange registered no driving scan")
	}
	tr := &faultinject.Tracker{}
	acct := exec.NewAccountant(0)
	runner.Accountant = acct
	runner.Hook = faultinject.Compose(tr.Hook(), func(op, detail string, it exec.Iterator, life *exec.Life) exec.Iterator {
		if op != driving.Op || detail != driving.Detail {
			return it
		}
		return &panicAt{Iterator: it, at: 5}
	})
	p := mustCompile(t, runner, res)
	_, err := p.ExecuteContext(context.Background())
	if err == nil || !strings.Contains(err.Error(), "panic in exchange worker") || !strings.Contains(err.Error(), "injected operator bug") {
		t.Fatalf("pipeline returned %v, want an error naming the worker panic", err)
	}
	if tr.Opened() == 0 {
		t.Fatal("tracker saw no operators; the hook seam is broken")
	}
	if leaked := tr.Leaked(); leaked != 0 {
		t.Errorf("%d operators opened but never closed after a worker panic", leaked)
	}
	if used := acct.Used(); used != 0 {
		t.Errorf("%d bytes still charged after a worker panic", used)
	}
	if n := exec.ActiveWorkers(); n != 0 {
		t.Errorf("%d morsel workers still running after the pipeline closed", n)
	}
}
