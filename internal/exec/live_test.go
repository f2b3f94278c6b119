package exec

import (
	"runtime"
	"slices"
	"testing"

	"orderopt/internal/optimizer"
	"orderopt/internal/plan"
	"orderopt/internal/query"
	"orderopt/internal/querygen"
	"orderopt/internal/sqlparse"
	"orderopt/internal/tpcr"
)

// widthProbe records the width of the rows an operator hands up.
type widthProbe struct {
	Iterator
	w *int
}

func (p widthProbe) Next() (Row, bool, error) {
	row, ok, err := p.Iterator.Next()
	if ok {
		*p.w = len(row)
	}
	return row, ok, err
}

// probeWidths returns a Runner.Hook recording, per "op detail", the
// width of the operator's output rows (-1: it emitted none). Serial
// pipelines only: an exchange calls its hook from every worker.
func probeWidths(widths map[string]*int) IterHook {
	return func(op, detail string, it Iterator, _ *Life) Iterator {
		w := new(int)
		*w = -1
		widths[op+" "+detail] = w
		return widthProbe{it, w}
	}
}

// liveAbove is the liveness pass's oracle, from first principles: of the
// relations rels a subtree joins, a plan above it reads the query's
// group keys and aggregate inputs, and each column a predicate equates
// with a relation the subtree has not joined yet.
func liveAbove(g *query.Graph, rels uint64) int {
	in := func(c query.ColumnRef) bool { return rels&(1<<uint(c.Rel)) != 0 }
	var live []query.ColumnRef
	add := func(c query.ColumnRef) {
		if in(c) && !slices.Contains(live, c) {
			live = append(live, c)
		}
	}
	for _, c := range g.GroupBy {
		add(c)
	}
	for _, a := range g.Aggregates {
		if a.Fn != query.AggCount {
			add(a.Col)
		}
	}
	for e := range g.Edges {
		for _, p := range g.Edges[e].Preds {
			if in(p.Left) != in(p.Right) {
				add(p.Left)
				add(p.Right)
			}
		}
	}
	return len(live)
}

// planServed plans g the way planserverd -workers 1 does: serially,
// against the catalog's own statistics rather than the dataset's, which
// is what gives Q8 the hash-join plan q8_repeat executes.
func planServed(t *testing.T, g *query.Graph) (*query.Analysis, *plan.Node) {
	t.Helper()
	a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimizer.Optimize(a, optimizer.DefaultConfig(optimizer.ModeDFSM))
	if err != nil {
		t.Fatal(err)
	}
	return a, res.Best
}

// q8Served binds the Q8 statement q8_repeat posts. Its string literals
// reach the graph without dictionary codes, so — unlike Query8Graph's —
// its constant predicates pass every row: all of lineitem flows through
// every join.
func q8Served(t *testing.T) *query.Graph {
	t.Helper()
	stmt, err := sqlparse.Parse(tpcr.Query8SQL)
	if err != nil {
		t.Fatal(err)
	}
	bq, err := sqlparse.Bind(stmt, tpcr.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return bq.Graph
}

// joinWidths compiles best under the width probe, runs it, and checks
// every join's output width against liveAbove. It returns the rows and
// the joins' widths by the relations they have joined.
func joinWidths(t *testing.T, r *Runner, g *query.Graph, best *plan.Node) ([]Row, map[uint64]int) {
	t.Helper()
	widths := map[string]*int{}
	byRels := map[uint64]int{}
	r.Hook = probeWidths(widths)
	p, err := r.Compile(best)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n == nil {
			return
		}
		st := p.Ops[i]
		i++
		switch n.Op {
		case plan.MergeJoin, plan.HashJoin, plan.NestedLoopJoin:
			got, want := *widths[st.Op+" "+st.Detail], liveAbove(g, planRels(n))
			if got >= 0 && got != want {
				t.Errorf("%s %s emits %d columns, %d are read above it", st.Op, st.Detail, got, want)
			}
			byRels[planRels(n)] = got
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(best)
	return rows, byRels
}

// TestLiveColumnsQ8: compiled for the grouped Q8, every join emits the
// columns read above it and no others — two out of lineitem ⋈ part, one
// out of the top join, where the wide layout carries 9 and 25 — and the
// result is the wide pipeline's, grouped.
func TestLiveColumnsQ8(t *testing.T) {
	ds, _ := TPCRLazyRegistry().Get("tpcr-small")
	g := q8Served(t)
	a, best := planServed(t, g)
	got, widths := joinWidths(t, ds.Runner(a), g, best)
	if len(got) == 0 {
		t.Fatal("Q8 over tpcr-small returned no groups")
	}
	const part, lineitem = 1 << 0, 1 << 2 // the from list's order
	if w, ok := widths[part|lineitem]; !ok || w != 2 {
		t.Errorf("lineitem ⋈ part emits %d columns (joined at all: %v), want l_orderkey and l_suppkey\n%s", w, ok, best)
	}
	if w := widths[1<<uint(len(g.Relations))-1]; w != 1 {
		t.Errorf("the top join emits %d columns, want o_orderdate alone", w)
	}

	// Unhooked, so with the resident build tables: the same rows.
	plain, _, err := ds.Runner(a).Run(best)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(plain, got) {
		t.Fatalf("hooked and plain runs differ (%d vs %d rows)", len(got), len(plain))
	}

	// The wide reference: the same joins under select *, grouped here.
	wg := q8Served(t)
	key := wg.GroupBy[0]
	wg.GroupBy, wg.OrderBy, wg.Aggregates = nil, nil, nil
	wa, wbest := planServed(t, wg)
	wide, schema, err := ds.Runner(wa).Run(wbest)
	if err != nil {
		t.Fatal(err)
	}
	if len(schema) != 25 {
		t.Fatalf("select * over Q8's joins carries %d columns, want all 25", len(schema))
	}
	want, err := Collect(&GroupHash{In: NewScan(wide), Keys: []int{colPos(schema, key)}})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(got, want) {
		t.Fatalf("narrow Q8 differs from the wide reference: %d vs %d groups", len(got), len(want))
	}
}

// TestLiveColumnsExchange: a grouped query through an exchange — with
// and without a hook, which every morsel's driving scan passes through —
// returns row for row what its serial twin returns, at DOP 2 and 4, and
// the exchange hands up only the live columns.
func TestLiveColumnsExchange(t *testing.T) {
	ds, _ := TPCRLazyRegistry().Get("tpcr-mid")
	grouped := func() (*query.Graph, error) { // order-preserving: ExchangeMerge under GroupSorted
		_, g, err := tpcr.OrderStreamGraph()
		if err == nil {
			g.GroupBy = g.OrderBy
		}
		return g, err
	}
	q8 := func() (*query.Graph, error) { _, g, err := tpcr.Query8Graph(); return g, err }
	for name, graph := range map[string]func() (*query.Graph, error){"orders": grouped, "q8": q8} {
		g, err := graph()
		if err != nil {
			t.Fatal(err)
		}
		a, best := planParallel(t, ds, g, 4)
		xn := findOp(best, plan.ExchangeMerge)
		if xn == nil {
			xn = findOp(best, plan.ExchangeUnion)
		}
		if xn == nil || findOp(xn, plan.HashJoin) == nil && findOp(xn, plan.MergeJoin) == nil {
			t.Fatalf("%s: no exchange over a join at MaxDOP=4:\n%s", name, best)
		}
		want, _, err := ds.Runner(a).Run(stripExchanges(best))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: serial result is empty", name)
		}
		passthrough := func(_, _ string, it Iterator, _ *Life) Iterator { return it }
		for _, hook := range []IterHook{nil, passthrough} {
			for _, dop := range []int{2, 4} {
				r := ds.Runner(a)
				r.MaxDOP, r.Hook = dop, hook
				p, err := r.Compile(best)
				if err != nil {
					t.Fatal(err)
				}
				got, err := p.Execute()
				if err != nil {
					t.Fatalf("%s dop=%d hooked=%v: %v", name, dop, hook != nil, err)
				}
				if !rowsEqual(got, want) {
					t.Fatalf("%s dop=%d hooked=%v: %d rows differ from the serial %d",
						name, dop, hook != nil, len(got), len(want))
				}
				if p.Life.HeldBytes() != 0 {
					t.Fatalf("%s dop=%d hooked=%v: %d bytes still held", name, dop, hook != nil, p.Life.HeldBytes())
				}
			}
			// The exchange alone, under the live set the group passes down.
			r := ds.Runner(a)
			r.Hook = hook
			_, schema, err := r.build(xn, &Pipeline{Life: &Life{}}, append(liveCols{}, g.GroupBy...), 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(schema) != len(g.GroupBy) {
				t.Errorf("%s hooked=%v: exchange emits %v, want the group keys alone", name, hook != nil, schema)
			}
		}
	}
}

// TestLiveColumnsEquatedTwin: group by a.x order by b.y with a.x = b.y
// over a second, residual predicate on the same edge. The join carries
// one column of the equated pair for both consumers, checks the residual
// on the (left, right) pair — its columns are in no output row — and
// counts the rows brute force counts.
func TestLiveColumnsEquatedTwin(t *testing.T) {
	_, g, err := querygen.Generate(querygen.Spec{
		Relations: 2, Seed: 5, ColumnsPerTable: 3, SelectionProb: -1, NoOrderBy: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pred := g.Edges[0].Preds[0]
	second := [2]query.ColumnRef{{Rel: pred.Left.Rel, Col: (pred.Left.Col + 1) % 3}, {Rel: pred.Right.Rel, Col: (pred.Right.Col + 1) % 3}}
	if err := g.AddJoin(second[0], second[1]); err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) != 1 || len(g.Edges[0].Preds) != 2 {
		t.Fatalf("want one edge with two predicates, have %+v", g.Edges)
	}
	g.GroupBy = []query.ColumnRef{pred.Left}
	g.OrderBy = []query.ColumnRef{pred.Right}
	data := querygen.GenerateData(g, 40, 7)
	ref, refSchema, err := BruteForce(&query.Analysis{Graph: g}, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("no row satisfies both predicates; pick another seed")
	}
	want, err := Collect(&GroupHash{In: NewScan(ref), Keys: []int{colPos(refSchema, pred.Left)}})
	if err != nil {
		t.Fatal(err)
	}

	a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, disable := range []func(*optimizer.Config){
		func(*optimizer.Config) {},
		func(c *optimizer.Config) { c.DisableMergeJoin = true },
		func(c *optimizer.Config) { c.DisableHashJoin = true },
	} {
		cfg := optimizer.DefaultConfig(optimizer.ModeDFSM)
		disable(&cfg)
		res, err := optimizer.Optimize(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := fixtureRunner(a, data)
		widths := map[string]*int{}
		r.Hook = probeWidths(widths)
		p, err := r.Compile(res.Best)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := p.Execute()
		if err != nil {
			t.Fatalf("%v\n%s", err, res.Best)
		}
		if !sameMultiset(rows, want) || !SatisfiesOrdering(rows, []int{0}) {
			t.Fatalf("grouped result differs from brute force, or is not ordered:\n%v\nvs\n%v\n%s", rows, want, res.Best)
		}
		for i, st := range p.Ops {
			switch st.Op {
			case "MergeJoin", "HashJoin", "NestedLoopJoin":
				if st.Rows != int64(len(ref)) {
					t.Errorf("%s counts %d rows, brute force %d", st.Op, st.Rows, len(ref))
				}
				if w := *widths[st.Op+" "+st.Detail]; w != 1 {
					t.Errorf("%s emits %d columns, want one of the equated pair\n%s", st.Op, w, res.Best)
				}
			case "Sort", "GroupSorted", "GroupHash":
			default:
				if i == 0 {
					t.Fatalf("unexpected root %s", st.Op)
				}
			}
		}
	}
}

// TestQ8ExecAllocBudget bounds what one warmed Q8 execution on tpcr-mid
// allocates: 2.4 MiB with live-column emit and CSR builds from a pooled
// drain buffer, 10.7 MiB when every join concatenated whole rows and
// built a map. Median of 15, like TestColdPlanAllocBudget.
func TestQ8ExecAllocBudget(t *testing.T) {
	ds, _ := TPCRLazyRegistry().Get("tpcr-mid")
	a, best := planServed(t, q8Served(t))
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rows, _, err := ds.Runner(a).Run(best)
		runtime.ReadMemStats(&after)
		if err != nil || len(rows) == 0 {
			t.Fatalf("%d rows, %v", len(rows), err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // warm-up: the resident build tables, the pooled drain buffer
	runs := make([]uint64, 15)
	for i := range runs {
		runs[i] = run()
	}
	slices.Sort(runs)
	median := runs[len(runs)/2]
	t.Logf("one Q8 execution allocates %d KiB (median of %d; min %d, max %d)",
		median>>10, len(runs), runs[0]>>10, runs[len(runs)-1]>>10)
	if median >= 4<<20 {
		t.Errorf("one Q8 execution allocates %d KiB, want under 4 MiB", median>>10)
	}
}
