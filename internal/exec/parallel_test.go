package exec

import (
	"errors"
	"testing"

	"orderopt/internal/catalog"
	"orderopt/internal/optimizer"
	"orderopt/internal/plan"
	"orderopt/internal/query"
	"orderopt/internal/tpcr"
)

// planParallel analyzes and optimizes g over ds with the DFSM framework
// at the given MaxDOP.
func planParallel(t *testing.T, ds *Dataset, g *query.Graph, maxDOP int) (*query.Analysis, *plan.Node) {
	t.Helper()
	ds.ApplyStats(g)
	a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := optimizer.DefaultConfig(optimizer.ModeDFSM)
	cfg.MaxDOP = maxDOP
	res, err := optimizer.Optimize(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, res.Best
}

// stripExchanges clones the plan with every exchange node replaced by
// its child — the serial plan whose row sequence an ExchangeMerge must
// reproduce exactly.
func stripExchanges(n *plan.Node) *plan.Node {
	if n == nil {
		return nil
	}
	if n.Op == plan.ExchangeMerge {
		return stripExchanges(n.Left)
	}
	c := &plan.Node{}
	*c = *n
	c.Left = stripExchanges(n.Left)
	c.Right = stripExchanges(n.Right)
	return c
}

func findOp(n *plan.Node, op plan.Op) *plan.Node {
	if n == nil {
		return nil
	}
	if n.Op == op {
		return n
	}
	if f := findOp(n.Left, op); f != nil {
		return f
	}
	return findOp(n.Right, op)
}

// drivingScan returns the stats entry of p's exchange driving scan —
// the one scan an exchange compiles with a DOP, whose instances the
// hook is offered inside the workers, one per morsel.
func drivingScan(t *testing.T, p *Pipeline) *OpStats {
	t.Helper()
	for _, op := range p.Ops {
		if op.DOP > 0 && (op.Op == plan.TableScan.String() || op.Op == plan.IndexScan.String()) {
			return op
		}
	}
	t.Fatal("pipeline has no exchange driving scan")
	return nil
}

func rowsEqual(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestExchangeMergePreservesSerialSequence is the order-preservation
// theorem as a test: the plan the optimizer parallelized must produce,
// at every DOP, row for row the sequence its serial (exchange-stripped)
// twin produces — no sorting, no reordering, on both workloads. The
// workers count what the serial operators count: at DOP > 1 every
// stats entry but the exchange's own reports the rows of the same plan
// node in the serial pipeline.
func TestExchangeMergePreservesSerialSequence(t *testing.T) {
	reg := TPCRLazyRegistry()
	workloads := []struct {
		name  string
		graph func() (*catalog.Catalog, *query.Graph, error)
	}{
		{"orders", tpcr.OrderStreamGraph},
		{"q8", tpcr.Query8Graph},
	}
	for _, w := range workloads {
		for _, dsName := range []string{"tpcr-mid", "tpcr-large"} {
			ds, ok := reg.Get(dsName)
			if !ok {
				t.Fatalf("no dataset %s", dsName)
			}
			_, g, err := w.graph()
			if err != nil {
				t.Fatal(err)
			}
			a, best := planParallel(t, ds, g, 4)
			if findOp(best, plan.ExchangeMerge) == nil {
				t.Fatalf("%s/%s: optimizer chose no exchange at MaxDOP=4:\n%s",
					w.name, dsName, best)
			}
			serialPlan := stripExchanges(best)

			sp, err := ds.Runner(a).Compile(serialPlan)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sp.Execute()
			if err != nil {
				t.Fatal(err)
			}
			for _, dop := range []int{1, 2, 4, 8} {
				r := ds.Runner(a)
				r.MaxDOP = dop
				p, err := r.Compile(best)
				if err != nil {
					t.Fatalf("%s/%s dop=%d: %v", w.name, dsName, dop, err)
				}
				got, err := p.Execute()
				if err != nil {
					t.Fatalf("%s/%s dop=%d: %v", w.name, dsName, dop, err)
				}
				if !rowsEqual(got, want) {
					t.Fatalf("%s/%s dop=%d: parallel row sequence differs from serial (%d vs %d rows)",
						w.name, dsName, dop, len(got), len(want))
				}
				if p.Life.HeldBytes() != 0 {
					t.Fatalf("%s/%s dop=%d: %d bytes still held after execution",
						w.name, dsName, dop, p.Life.HeldBytes())
				}
				if dop == 1 {
					continue
				}
				// Preorder with the exchange's entry dropped is the serial
				// pipeline's preorder.
				var ops []*OpStats
				for _, op := range p.Ops {
					if op.Op != plan.ExchangeMerge.String() {
						ops = append(ops, op)
					}
				}
				if len(ops) != len(sp.Ops) {
					t.Fatalf("%s/%s dop=%d: %d stats entries besides the exchange's, serial has %d",
						w.name, dsName, dop, len(ops), len(sp.Ops))
				}
				for i, op := range ops {
					if s := sp.Ops[i]; op.Op != s.Op || op.Detail != s.Detail || op.Rows != s.Rows {
						t.Errorf("%s/%s dop=%d: entry %d is %s %s with %d rows, serially %s %s with %d",
							w.name, dsName, dop, i, op.Op, op.Detail, op.Rows, s.Op, s.Detail, s.Rows)
					}
				}
			}
		}
	}
}

// TestExchangeMergeAvoidsSorting pins the acceptance property: on the
// orders workload over tpcr-large the DFSM plan parallelizes with an
// order-preserving ExchangeMerge and still sorts zero rows.
func TestExchangeMergeAvoidsSorting(t *testing.T) {
	reg := TPCRLazyRegistry()
	ds, _ := reg.Get("tpcr-large")
	_, g, err := tpcr.OrderStreamGraph()
	if err != nil {
		t.Fatal(err)
	}
	a, best := planParallel(t, ds, g, 4)
	if findOp(best, plan.ExchangeMerge) == nil {
		t.Fatalf("no ExchangeMerge in plan:\n%s", best)
	}
	if findOp(best, plan.Sort) != nil {
		t.Fatalf("parallel DFSM plan contains a Sort:\n%s", best)
	}
	r := ds.Runner(a)
	r.MaxDOP = 4
	p, err := r.Compile(best)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(); err != nil {
		t.Fatal(err)
	}
	if n := p.RowsSorted(); n != 0 {
		t.Fatalf("rows sorted = %d, want 0", n)
	}
	var sawDOP bool
	for _, op := range p.Ops {
		if op.Op == plan.ExchangeMerge.String() {
			if op.DOP != 4 {
				t.Fatalf("exchange DOP = %d, want 4", op.DOP)
			}
			sawDOP = true
		}
	}
	if !sawDOP {
		t.Fatal("no ExchangeMerge in OpStats")
	}
}

// TestExchangeBudgetAbortsSiblings runs the parallel orders plan under
// a byte budget it cannot fit: one worker trips the budget, the shared
// Life aborts the others, the query fails with ErrBudgetExceeded and
// everything charged is released.
func TestExchangeBudgetAbortsSiblings(t *testing.T) {
	reg := TPCRLazyRegistry()
	ds, _ := reg.Get("tpcr-large")
	_, g, err := tpcr.OrderStreamGraph()
	if err != nil {
		t.Fatal(err)
	}
	a, best := planParallel(t, ds, g, 4)
	acct := NewAccountant(0)
	r := ds.Runner(a)
	r.MaxDOP = 4
	r.Budget = Budget{MaxBytes: 256 << 10}
	r.Accountant = acct
	p, err := r.Compile(best)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Execute()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if got := acct.Used(); got != 0 {
		t.Fatalf("accountant still holds %d bytes", got)
	}
	if got := p.Life.HeldBytes(); got != 0 {
		t.Fatalf("life still holds %d bytes", got)
	}
}

// TestHashViewOneForm: a dataset's build table is one struct in one
// form — CSR, direct-addressed over a packed key domain and through the
// sorted distinct keys over a sparse one — with bucket contents in
// stream order either way, of exactly the size it was admitted at, and
// built once per dataset, view and key column.
func TestHashViewOneForm(t *testing.T) {
	d := NewDataset("d", "", nil, nil)
	packed := []Row{{5, 0}, {7, 1}, {5, 2}, {6, 3}}
	hv := d.buildTable(buildKey{table: "t"}, packed)
	if hv.keys != nil || hv.min != 5 || len(hv.off) != 4 {
		t.Fatalf("packed keys: %+v, want direct-address CSR over 5..7", hv)
	}
	if got := hv.bucket(5); len(got) != 2 || got[0][1] != 0 || got[1][1] != 2 {
		t.Errorf("bucket 5 = %v, want the two key-5 rows in stream order", got)
	}
	if len(hv.bucket(4))+len(hv.bucket(8))+len(hv.bucket(-1<<63)) != 0 {
		t.Error("keys outside the span found rows")
	}
	if d.buildTable(buildKey{table: "t"}, packed) != hv {
		t.Error("second touch of the same view and column did not reuse the first")
	}
	if want := int64(4*4 + 24*4); d.MemBytes() != want {
		t.Errorf("MemBytes = %d after one packed view, want %d", d.MemBytes(), want)
	}

	sparse := []Row{{1 << 40, 0}, {1, 1}, {1 << 40, 2}}
	hv = d.buildTable(buildKey{table: "u"}, sparse)
	if len(hv.keys) != 2 || len(hv.off) != 3 {
		t.Fatalf("sparse keys: %+v, want CSR over 2 sorted keys", hv)
	}
	if got := hv.bucket(1 << 40); len(got) != 2 || got[0][1] != 0 || got[1][1] != 2 {
		t.Errorf("bucket 1<<40 = %v, want its two rows in stream order", got)
	}
	if len(hv.bucket(1)) != 1 || len(hv.bucket(2)) != 0 {
		t.Error("sparse lookup: want one row under 1 and none under 2")
	}
	if want := int64(4*4+24*4) + int64(4*3+8*2+24*3); d.MemBytes() != want {
		t.Errorf("MemBytes = %d after both views, want %d", d.MemBytes(), want)
	}
	if hv = d.buildTable(buildKey{table: "e"}, nil); hv == nil || len(hv.bucket(0)) != 0 {
		t.Errorf("empty build side: %+v, want a table that finds nothing", hv)
	}
}
