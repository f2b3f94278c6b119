package exec

import (
	"runtime"
	"testing"
	"time"

	"orderopt/internal/plan"
	"orderopt/internal/query"
	"orderopt/internal/querygen"
	"orderopt/internal/tpcr"
)

// ordersCustomerGraph builds orders ⋈ customer ordered by o_orderkey —
// a stream whose sort key is unique (one customer per order), so the
// k-prefix of the result is the same row sequence whatever plan
// produced it. That determinism is what lets the tests below compare a
// limited run against a slice of the unlimited reference.
func ordersCustomerGraph(t *testing.T) *query.Graph {
	t.Helper()
	c := tpcr.Schema()
	g := &query.Graph{}
	orders, _ := c.Table("orders")
	cust, _ := c.Table("customer")
	ro := g.AddRelation("orders", orders)
	rc := g.AddRelation("customer", cust)
	err := g.AddJoin(
		query.ColumnRef{Rel: ro, Col: orders.ColumnIndex("o_custkey")},
		query.ColumnRef{Rel: rc, Col: cust.ColumnIndex("c_custkey")},
	)
	if err != nil {
		t.Fatal(err)
	}
	g.OrderBy = []query.ColumnRef{{Rel: ro, Col: orders.ColumnIndex("o_orderkey")}}
	return g
}

// TestLimitEdgeCases drives LIMIT through its boundary values — an
// explicit LIMIT 0, a limit far beyond the result size, a limit equal
// to it, and an ordinary top-k — asserting each emits exactly the
// k-prefix of the unlimited ordered result.
func TestLimitEdgeCases(t *testing.T) {
	reg := TPCRLazyRegistry()
	ds, ok := reg.Get("tpcr-small")
	if !ok {
		t.Fatal("no tpcr-small dataset")
	}

	// Unlimited reference, canonicalized so plans with different column
	// layouts compare positionally. Canonicalize keeps row order.
	ref := ordersCustomerGraph(t)
	a, best := planParallel(t, ds, ref, 1)
	want, wantSchema, err := ds.Runner(a).Run(best)
	if err != nil {
		t.Fatal(err)
	}
	wantCanon := Canonicalize(want, wantSchema, ref)
	total := len(want)
	if total == 0 {
		t.Fatal("reference result is empty; the dataset shrank under the test")
	}

	cases := []struct {
		name     string
		limit    int
		hasLimit bool
		want     int
	}{
		{"limit-0", 0, true, 0},
		{"limit-1", 1, false, 1},
		{"top-7", 7, false, 7},
		{"limit-equals-rows", total, false, total},
		{"limit-beyond-rows", total + 1000, false, total},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := ordersCustomerGraph(t)
			g.Limit = tc.limit
			g.HasLimit = tc.hasLimit
			a, best := planParallel(t, ds, g, 1)
			if findOp(best, plan.Limit) == nil {
				t.Fatalf("optimizer planned no Limit operator:\n%s", best)
			}
			rows, schema, err := ds.Runner(a).Run(best)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != tc.want {
				t.Fatalf("got %d rows, want %d", len(rows), tc.want)
			}
			if !rowsEqual(Canonicalize(rows, schema, g), wantCanon[:tc.want]) {
				t.Fatalf("limited result is not the %d-prefix of the ordered reference", tc.want)
			}
		})
	}
}

// TestLimitMidDuplicateGroupMergeJoin cuts a limit in the middle of a
// merge join's duplicate-key group — the join is mid cross-product when
// the limit quiesces, the spot where early-out interacts with the
// join's buffered right-group state. Every cut point must emit exactly
// the k-prefix of the unlimited run of the same plan.
func TestLimitMidDuplicateGroupMergeJoin(t *testing.T) {
	_, g, err := querygen.Generate(querygen.Spec{
		Relations: 2, ExtraEdges: 0, Seed: 3, ColumnsPerTable: 2,
		SelectionProb: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := query.Analyze(g, query.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}

	pred := g.Edges[0].Preds[0]
	// Hand-built inputs, pre-sorted on the join columns, with duplicate
	// keys on both sides: key 1 joins 2×2, key 2 joins 2×1, key 3 joins
	// 1×1 — 7 output rows in groups of 4, 2 and 1.
	mk := func(col int, keys ...int64) [][]int64 {
		rows := make([][]int64, len(keys))
		for i, k := range keys {
			row := make([]int64, 2)
			row[col] = k
			row[1-col] = int64(100*(i+1)) + k
			rows[i] = row
		}
		return rows
	}
	data := map[string][][]int64{
		g.Relations[pred.Left.Rel].Table.Name:  mk(pred.Left.Col, 1, 1, 2, 2, 3),
		g.Relations[pred.Right.Rel].Table.Name: mk(pred.Right.Col, 1, 1, 2, 3),
	}

	join := &plan.Node{
		Op: plan.MergeJoin, Edge: 0, Pred: 0,
		Left:  &plan.Node{Op: plan.TableScan, Rel: pred.Left.Rel},
		Right: &plan.Node{Op: plan.TableScan, Rel: pred.Right.Rel},
	}
	runner := fixtureRunner(a, data)
	want, _, err := runner.Run(join)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 7 {
		t.Fatalf("unlimited merge join emitted %d rows, want 7; the fixture data drifted", len(want))
	}

	// Cut points: mid first group (3), at a group boundary (4), mid a
	// later group (5), and past the end (9).
	for _, k := range []int{3, 4, 5, 7, 9} {
		limited := &plan.Node{Op: plan.Limit, Limit: k, Left: join}
		got, _, err := fixtureRunner(a, data).Run(limited)
		if err != nil {
			t.Fatalf("limit %d: %v", k, err)
		}
		n := k
		if n > len(want) {
			n = len(want)
		}
		if !rowsEqual(got, want[:n]) {
			t.Fatalf("limit %d: got %d rows, not the %d-prefix of the unlimited join", k, len(got), n)
		}
	}
}

// delayIter sleeps once every 16 rows — the knob that makes the
// early-out test below deterministic by keeping morsel workers
// mid-stream when the limit fills, without paying the platform's
// per-sleep granularity floor on every row.
type delayIter struct {
	in Iterator
	d  time.Duration
	n  int
}

func (d *delayIter) Open() error { d.n = 0; return d.in.Open() }
func (d *delayIter) Next() (Row, bool, error) {
	if d.n++; d.n%16 == 0 {
		time.Sleep(d.d)
	}
	return d.in.Next()
}
func (d *delayIter) Close() error { return d.in.Close() }

// TestLimitEarlyOutUnderParallelExchanges pins the early-out contract
// at DOP > 1: when the top-level Limit fills, it quiesces the
// pipeline's Life and the sibling morsel workers feeding the exchange
// wind down — stop claiming morsels, abandon the one in hand — instead
// of producing output nobody will read. A graceful stop, not an abort:
// the emitted prefix is still a successful, ordered result.
//
// Exchange workers deliberately run ahead of the consumer (every
// result channel has capacity for every send), so without the quiesce
// check a limited run would still process every morsel in full. The
// hook slows each morsel's driving scan, inside the worker, enough that
// the limit fills while later morsels are still in flight; the row
// counters then separate cleanly: ~all rows without cancellation,
// roughly the first worker round with it. The run is at DOP 2, where a
// morsel's filtered driving rows outnumber CancelCheckInterval, so a
// worker polls the pipeline mid-morsel.
func TestLimitEarlyOutUnderParallelExchanges(t *testing.T) {
	reg := TPCRLazyRegistry()
	ds, ok := reg.Get("tpcr-large")
	if !ok {
		t.Fatal("no tpcr-large dataset")
	}
	_, g, err := tpcr.OrderStreamGraph()
	if err != nil {
		t.Fatal(err)
	}
	a, best := planParallel(t, ds, g, 4)
	if findOp(best, plan.ExchangeMerge) == nil {
		t.Fatalf("optimizer chose no exchange at MaxDOP=4:\n%s", best)
	}
	if findOp(best, plan.MergeJoin) == nil {
		t.Fatalf("plan no longer merge-joins:\n%s", best)
	}
	probe, err := ds.Runner(a).Compile(best)
	if err != nil {
		t.Fatal(err)
	}
	driving := drivingScan(t, probe)
	hook := func(op, detail string, it Iterator, life *Life) Iterator {
		if op == driving.Op && detail == driving.Detail {
			return &delayIter{in: it, d: time.Millisecond}
		}
		return it
	}

	// Reference: the same hooked plan without a limit processes the
	// full join stream through the morsels' merge joins.
	full := ds.Runner(a)
	full.MaxDOP = 2
	full.Hook = hook
	fp, err := full.Compile(best)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fp.Execute(); err != nil {
		t.Fatal(err)
	}
	fullJoin := opRows(t, fp, plan.MergeJoin)

	const k = 10
	limited := &plan.Node{Op: plan.Limit, Limit: k, Left: best, Card: k}
	r := ds.Runner(a)
	r.MaxDOP = 2
	r.Hook = hook
	p, err := r.Compile(limited)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != k {
		t.Fatalf("got %d rows, want %d", len(rows), k)
	}
	cols := make([]int, len(g.OrderBy))
	for i, c := range g.OrderBy {
		if cols[i] = colPos(p.Schema, c); cols[i] < 0 {
			t.Fatalf("ORDER BY column %v missing from output schema", c)
		}
	}
	if !SatisfiesOrdering(rows, cols) {
		t.Fatal("limited parallel result violates the ORDER BY")
	}
	if !p.Life.drained() {
		t.Fatal("reaching the limit did not quiesce the pipeline's Life")
	}
	// Every operator below the Limit is marked, so stats readers know
	// its Rows legitimately stopped short of EstRows.
	for _, op := range p.Ops {
		if op.Op == plan.Limit.String() {
			if op.Rows != k {
				t.Fatalf("Limit operator reports %d rows, want %d", op.Rows, k)
			}
			continue
		}
		if !op.Limited {
			t.Fatalf("operator %s under a Limit is not marked Limited", op.Op)
		}
	}
	// The sibling cancellation: the limited run's morsel joins must stop
	// well short of the full stream. Workers poll quiescence before each
	// morsel and every CancelCheckInterval driving rows, and an abandoned
	// morsel counts nothing, so only the morsels already past their
	// first poll when the limit filled (at most one round of workers)
	// keep contributing.
	gotJoin := opRows(t, p, plan.MergeJoin)
	if gotJoin*10 > fullJoin*9 {
		t.Fatalf("limited run joined %d rows vs %d unlimited — early-out did not stop the sibling workers",
			gotJoin, fullJoin)
	}
}

// opRows sums the row counters of every operator with the given op.
func opRows(t *testing.T, p *Pipeline, op plan.Op) int64 {
	t.Helper()
	var n int64
	found := false
	for _, o := range p.Ops {
		if o.Op == op.String() {
			n += o.Rows
			found = true
		}
	}
	if !found {
		t.Fatalf("pipeline has no %s operator", op)
	}
	return n
}

// topKHot plans the benchmark's topk_hot statement — top 10 of orders ⋈
// customer by o_orderkey — over ds: a sort-free pipeline whose only
// blocking step is the hash join's build over the bare customer scan.
func topKHot(t *testing.T, ds *Dataset) (*query.Analysis, *plan.Node) {
	t.Helper()
	g := ordersCustomerGraph(t)
	g.Limit, g.HasLimit = 10, true
	a, best := planParallel(t, ds, g, 1)
	if j := findOp(best, plan.HashJoin); j == nil || j.Right.Op != plan.TableScan || best.Ops()[plan.Sort] != 0 {
		t.Fatalf("topk_hot is no longer a sort-free hash join over a bare scan:\n%s", best)
	}
	return a, best
}

// TestTopKHotAllocCeiling pins what a cache-hit top-10 costs once the
// dataset holds the build table: compiling and running it allocates a
// few KiB (the pipeline and its ten result rows), not the hundreds a
// per-request build of the customer table did.
func TestTopKHotAllocCeiling(t *testing.T) {
	ds, ok := TPCRLazyRegistry().Get("tpcr-large")
	if !ok {
		t.Fatal("no tpcr-large dataset")
	}
	a, best := topKHot(t, ds)
	run := func() {
		p, err := ds.Runner(a).Compile(best)
		if err != nil {
			t.Fatal(err)
		}
		if rows, err := p.Execute(); err != nil || len(rows) != 10 {
			t.Fatalf("top-10 returned %d rows, error %v", len(rows), err)
		}
	}
	run() // builds the table
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("a warm top-10 allocates %d bytes", perRun)
	if perRun > 16<<10 {
		t.Errorf("a warm top-10 allocates %d bytes, want at most 16 KiB", perRun)
	}
}

// TestResidentBuildFallback: under a memory limit with room for the
// dataset and nothing else, the top-10 runs exactly as before — it
// builds its own table, charged to its own budget, and retains nothing
// — and the same statement adopts the resident table once there is
// room, reporting so and returning the same rows, now without charging
// the query for a build it did not do.
func TestResidentBuildFallback(t *testing.T) {
	r := TPCRLazyRegistry()
	ds, release, err := r.Acquire("tpcr-mid")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	base := ds.MemBytes()
	r.SetAccountant(NewAccountant(base))
	a, best := topKHot(t, ds)
	customers := int64(len(ds.Tables["customer"]))
	// A per-query budget one byte short of the build's drain buffer.
	short := Budget{MaxBytes: rowBufBytes(int(customers)) - 1}
	run := func(budget Budget) ([]Row, *Pipeline, error) {
		runner := ds.Runner(a)
		runner.Budget = budget
		p, err := runner.Compile(best)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := p.Execute()
		return rows, p, err
	}
	resident := func(p *Pipeline) *OpStats {
		for _, op := range p.Ops {
			if op.Resident {
				return op
			}
		}
		return nil
	}

	want, p, err := run(Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if _, misses, fallbacks := r.BuildCounts(); resident(p) != nil || misses != 0 || fallbacks != 1 {
		t.Errorf("tight budget: resident entry %v, %d misses, %d fallbacks; want a per-query build and 1 fallback", resident(p), misses, fallbacks)
	}
	if r.ResidentBytes() != base || ds.MemBytes() != base {
		t.Errorf("tight budget retained something: %d resident, want %d", r.ResidentBytes(), base)
	}
	if _, _, err := run(short); err == nil {
		t.Error("a per-query build over the byte budget passed")
	}

	r.SetAccountant(nil)
	got, p, err := run(short)
	if err != nil {
		t.Fatalf("adopted build charged the query: %v", err)
	}
	if !rowsEqual(got, want) {
		t.Error("adopting the resident table changed the result")
	}
	if op := resident(p); op == nil || op.Op != plan.TableScan.String() || op.Rows != customers || !op.Limited {
		t.Errorf("adopted scan entry = %+v, want a limited TableScan of %d rows", op, customers)
	}
	if _, misses, _ := r.BuildCounts(); misses != 1 || r.ResidentBytes() != ds.MemBytes() || ds.MemBytes() <= base {
		t.Errorf("after adoption: %d misses, %d resident, dataset %d (base %d)", misses, r.ResidentBytes(), ds.MemBytes(), base)
	}
}
