package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"orderopt/internal/catalog"
	"orderopt/internal/plan"
	"orderopt/internal/query"
	"orderopt/internal/tpcr"
)

// arenaBytes is what the pipeline's pooled allocators hold of the
// chunk pools right now.
func arenaBytes(l *Life) int64 {
	var n int64
	for _, al := range l.arena {
		for _, ch := range al.taken {
			n += int64(len(ch.buf)) * 8
		}
	}
	return n
}

// indexScan is an IndexScan of relation rel on its index over col.
func indexScan(t *testing.T, g *query.Graph, rel int, col string) *plan.Node {
	t.Helper()
	for i, ix := range g.Relations[rel].Table.Indexes {
		if ix.Columns[0] == col {
			return &plan.Node{Op: plan.IndexScan, Rel: rel, Index: i}
		}
	}
	t.Fatalf("no index on %s", col)
	return nil
}

// mergeRightJoin is lineitem ⋈ (orders ⋈ lineitem) on the order key,
// as nested merge joins: the top join's right input is itself a join,
// whose rows the top join drops group by group.
func mergeRightJoin(t *testing.T) (*query.Analysis, *plan.Node) {
	t.Helper()
	c := tpcr.Schema()
	orders, _ := c.Table("orders")
	li, _ := c.Table("lineitem")
	g := &query.Graph{}
	l2 := g.AddRelation("l2", li)
	o := g.AddRelation("orders", orders)
	l1 := g.AddRelation("l1", li)
	okey := query.ColumnRef{Rel: o, Col: orders.ColumnIndex("o_orderkey")}
	for _, l := range []int{l1, l2} { // edge 0: orders-l1, edge 1: orders-l2
		if err := g.AddJoin(okey, query.ColumnRef{Rel: l, Col: li.ColumnIndex("l_orderkey")}); err != nil {
			t.Fatal(err)
		}
	}
	a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	return a, &plan.Node{Op: plan.MergeJoin, Edge: 1,
		Left: indexScan(t, g, l2, "l_orderkey"),
		Right: &plan.Node{Op: plan.MergeJoin, Edge: 0,
			Left: indexScan(t, g, o, "o_orderkey"), Right: indexScan(t, g, l1, "l_orderkey")}}
}

// tpcrScaled is the TPC-R shape at the given generator scale.
func tpcrScaled(scale int) *Dataset {
	return NewDataset(fmt.Sprintf("tpcr-x%d", scale), "arena test fixture", tpcr.Schema(),
		tpcr.Generate(tpcr.DefaultGenSpec().Scale(float64(scale))))
}

// arenaWatch passes rows through and records the most arena bytes and
// budget bytes its pipeline held, and how many rows it passed, in the
// shared tally.
type arenaWatch struct {
	Iterator
	life *Life
	tally
}

type tally struct{ peak, held, rows *int64 }

func (w arenaWatch) Next() (Row, bool, error) {
	*w.peak = max(*w.peak, arenaBytes(w.life))
	*w.held = max(*w.held, w.life.HeldBytes())
	*w.rows++
	return w.Iterator.Next()
}

// TestArenaRetention pins what a pipeline's arena holds: for a streamed
// root ring, and with a merge join whose right input is a join, the
// same bytes at every input length — the ring is bounded, and the
// right input's rows, which the merge join drops group by group, are
// not pooled. And every way a pipeline ends hands the arena's chunks
// back to the pools: success, a failed input, a dead context, a budget
// abort and a panic in Open.
func TestArenaRetention(t *testing.T) {
	a, top := mergeRightJoin(t)
	var peaks, counts []int64
	for _, scale := range []int{3, 12} {
		p, err := tpcrScaled(scale).Runner(a).Compile(top)
		if err != nil {
			t.Fatal(err)
		}
		var peak, n int64
		if err := p.StreamContext(context.Background(), 0, func(rows []Row) error {
			peak = max(peak, arenaBytes(p.Life))
			n += int64(len(rows))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := arenaBytes(p.Life); got != 0 {
			t.Fatalf("scale %d: %d arena bytes kept after the stream", scale, got)
		}
		peaks, counts = append(peaks, peak), append(counts, n)
	}
	t.Logf("%d rows: %d arena bytes; %d rows: %d arena bytes", counts[0], peaks[0], counts[1], peaks[1])
	if counts[1] < 3*counts[0] || peaks[0] == 0 || peaks[0] != peaks[1] {
		t.Errorf("streaming %d rows held %d arena bytes, %d rows %d: want the same, and some",
			counts[0], peaks[0], counts[1], peaks[1])
	}

	ds, _ := TPCRLazyRegistry().Get("tpcr-mid")
	a, best := planServed(t, q8Served(t))
	if findOp(best, plan.Sort) == nil {
		t.Fatalf("the served Q8 plan has no Sort:\n%s", best)
	}
	var total, held int64
	type fault func(op string, it Iterator, tl tally, cancel context.CancelFunc) Iterator
	run := func(what string, budget int64, f fault) error {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var peak, peakHeld, rows int64
		r := ds.Runner(a)
		r.Budget.MaxBytes = budget
		r.Hook = func(op, _ string, it Iterator, life *Life) Iterator {
			tl := tally{&peak, &peakHeld, &rows}
			it = arenaWatch{it, life, tl}
			if f != nil {
				return f(op, it, tl, cancel)
			}
			return it
		}
		p, err := r.Compile(best)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if got := arenaBytes(p.Life); got != 0 || peak == 0 {
				t.Errorf("%s: the arena held %d bytes at most and keeps %d after the pipeline ended; want some, then 0",
					what, peak, got)
			}
			if what == "success" {
				total, held = rows, peakHeld
			}
		}()
		_, err = p.ExecuteContext(ctx)
		return err
	}
	if err := run("success", 0, nil); err != nil {
		t.Fatal(err)
	}
	failing := func(op string, it Iterator, tl tally, _ context.CancelFunc) Iterator {
		if op == plan.IndexScan.String() || op == plan.TableScan.String() {
			return failAt{it, tl, total / 2}
		}
		return it
	}
	if err := run("failed input", 0, failing); !errors.Is(err, errFailAfter) {
		t.Errorf("failed input: %v, want the input's error", err)
	}
	canceling := func(_ string, it Iterator, tl tally, cancel context.CancelFunc) Iterator {
		return cancelAt{it, tl, total / 2, cancel}
	}
	if err := run("dead context", 0, canceling); !errors.Is(err, context.Canceled) {
		t.Errorf("dead context: %v, want canceled", err)
	}
	if err := run("budget", held-1, nil); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("budget: %v, want ErrBudgetExceeded", err)
	}
	panicking := func(op string, it Iterator, _ tally, _ context.CancelFunc) Iterator {
		if op == plan.Sort.String() {
			return panicOpen{it}
		}
		return it
	}
	func() {
		defer func() {
			if v := recover(); v == nil {
				t.Error("panic in Open: the pipeline did not panic")
			}
		}()
		_ = run("panic in Open", 0, panicking)
	}()
}

// failAt fails the pull at which the tally's rows reach n.
type failAt struct {
	Iterator
	tally
	n int64
}

func (f failAt) Next() (Row, bool, error) {
	if *f.rows >= f.n {
		return nil, false, errFailAfter
	}
	return f.Iterator.Next()
}

// cancelAt cancels the pipeline's context once the tally's rows reach n.
type cancelAt struct {
	Iterator
	tally
	n      int64
	cancel context.CancelFunc
}

func (c cancelAt) Next() (Row, bool, error) {
	if *c.rows >= c.n {
		c.cancel()
	}
	return c.Iterator.Next()
}

// panicOpen opens its input, then panics.
type panicOpen struct{ Iterator }

func (p panicOpen) Open() error {
	if err := p.Iterator.Open(); err != nil {
		return err
	}
	panic("injected operator bug")
}

// TestExecuteRowsOwned: the rows ExecuteContext returns are the
// caller's. Rows a pooled join carved are copied out before the arena
// goes back to the pools, so 100 further executions, which take the
// same chunks and carve other rows into them, change none of them.
func TestExecuteRowsOwned(t *testing.T) {
	// Everything that allocates much comes first: a GC empties the pools.
	ds, _ := TPCRLazyRegistry().Get("tpcr-mid")
	qa, q8 := planServed(t, q8Served(t))
	a, top := mergeRightJoin(t)
	p, err := tpcrScaled(1).Runner(a).Compile(top)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := p.Execute()
	if err != nil || len(rows) == 0 {
		t.Fatalf("%d rows, %v", len(rows), err)
	}
	want := make([]Row, len(rows))
	for i, r := range rows {
		want[i] = slices.Clone(r)
	}
	for i := 0; i < 100; i++ {
		if _, _, err := ds.Runner(qa).Run(q8); err != nil {
			t.Fatal(err)
		}
	}
	if !rowsEqual(rows, want) {
		t.Fatal("rows an execution returned changed under later executions")
	}
}

// TestGroupSortedAllocFlat: sorted grouping over a merge join — the
// paper's sort-free grouping — keeps no input row, so the join under it
// carves a ring: the pipeline allocates, and holds of the arena, the
// same whatever the input's length. Four groups over 20k and 80k joined
// rows.
func TestGroupSortedAllocFlat(t *testing.T) {
	cat := catalog.New()
	for _, name := range []string{"a", "b"} {
		cat.MustAdd(&catalog.Table{Name: name,
			Columns: []catalog.Column{{Name: name + "_k", Type: catalog.Int}, {Name: name + "_v", Type: catalog.Int}},
			Indexes: []catalog.Index{{Name: name + "_k", Columns: []string{name + "_k"}, Clustered: true}}})
	}
	ta, _ := cat.Table("a")
	tb, _ := cat.Table("b")
	g := &query.Graph{}
	ra, rb := g.AddRelation("a", ta), g.AddRelation("b", tb)
	bk := query.ColumnRef{Rel: rb, Col: 0}
	if err := g.AddJoin(bk, query.ColumnRef{Rel: ra, Col: 0}); err != nil {
		t.Fatal(err)
	}
	g.GroupBy = []query.ColumnRef{bk}
	g.Aggregates = []query.Aggregate{{Fn: query.AggSum, Col: query.ColumnRef{Rel: rb, Col: 1}}}
	an, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	grouped := &plan.Node{Op: plan.GroupSorted, Left: &plan.Node{Op: plan.MergeJoin,
		Left: indexScan(t, g, rb, "b_k"), Right: indexScan(t, g, ra, "a_k")}}

	const groups = 4
	var bytes, arena [2]int64
	for i, n := range []int{20_000, 80_000} {
		data := map[string][][]int64{"a": nil, "b": nil}
		for k := 0; k < groups; k++ {
			data["a"] = append(data["a"], []int64{int64(k), 0})
		}
		for j := 0; j < n; j++ {
			data["b"] = append(data["b"], []int64{int64(j * groups / n), 1})
		}
		ds := NewDataset("flat", "group test fixture", cat, data)
		run := func() {
			p, err := ds.Runner(an).Compile(grouped)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var out []Row
			err = p.StreamContext(context.Background(), 0, func(rows []Row) error {
				arena[i] = arenaBytes(p.Life)
				for _, r := range rows {
					out = append(out, slices.Clone(r))
				}
				return nil
			})
			runtime.ReadMemStats(&after)
			if err != nil || len(out) != groups || out[0][1] != int64(n/groups) {
				t.Fatalf("%d joined rows: groups %v, %v", n, out, err)
			}
			bytes[i] = int64(after.TotalAlloc - before.TotalAlloc)
		}
		run() // fills the chunk pools
		run()
	}
	t.Logf("20k rows: %d bytes, %d arena bytes; 80k rows: %d bytes, %d arena bytes", bytes[0], arena[0], bytes[1], arena[1])
	if d := bytes[1] - bytes[0]; d > 16<<10 || d < -16<<10 {
		t.Errorf("grouping 20k rows allocated %d bytes, 80k rows %d: the difference is over 16 KiB", bytes[0], bytes[1])
	}
	if arena[0] != arena[1] {
		t.Errorf("grouping 20k rows held %d arena bytes, 80k rows %d: want the same", arena[0], arena[1])
	}
}
