// Executor demonstrates the execution tier end to end. Act one builds
// a hand-written merge-join pipeline (orders ⋈ lineitem on the order
// key, filtered customers) over a small consistent TPC-R database and
// physically verifies every ordering the DFSM claims at each stage.
// Act two closes the loop: the optimizer plans the TPC-R order-flow
// query, the Runner compiles the plan into a streaming pipeline over a
// registered dataset, and the per-operator counters show the order
// framework's runtime payoff — zero rows sorted.
package main

import (
	"fmt"

	"orderopt"
	"orderopt/internal/exec"
	"orderopt/internal/optimizer"
	"orderopt/internal/plan"
	"orderopt/internal/query"
	"orderopt/internal/tpcr"
)

func main() {
	data := tpcr.Generate(tpcr.DefaultGenSpec())
	fmt.Printf("generated mini TPC-R data: %d orders, %d lineitems\n\n",
		len(data["orders"]), len(data["lineitem"]))

	// Framework input: the join orders ⋈ lineitem on o_orderkey =
	// l_orderkey, plus a constant selection on o_custkey.
	b := orderopt.NewBuilder()
	oKey := b.Attr("o_orderkey")
	lKey := b.Attr("l_orderkey")
	cust := b.Attr("o_custkey")
	ordOKey := b.Ordering(oKey)
	ordLKey := b.Ordering(lKey)
	ordKeyCust := b.Ordering(oKey, cust)
	b.AddProduced(ordOKey)
	b.AddProduced(ordLKey)
	b.AddTested(ordKeyCust)
	joinFD := b.AddFDSet(orderopt.NewFDSet(orderopt.NewEquation(oKey, lKey)))
	custFD := b.AddFDSet(orderopt.NewFDSet(orderopt.NewConstant(cust)))

	opt := orderopt.PlannerOptions()
	fw, err := b.Prepare(opt)
	die(err)

	// Physical pipeline. Column layout after the join:
	//   orders: o_orderkey=0, o_custkey=1, o_orderdate=2
	//   lineitem: l_orderkey=3, l_partkey=4, ...
	toRows := func(rows [][]int64) []exec.Row {
		out := make([]exec.Row, len(rows))
		for i, r := range rows {
			out[i] = exec.Row(r)
		}
		return out
	}
	colOf := map[orderopt.Attr]int{oKey: 0, cust: 1, lKey: 3}

	// Stage 1: sort orders by o_orderkey.
	sortedOrders, err := exec.Collect(&exec.Sort{In: exec.NewScan(toRows(data["orders"]), nil), Keys: []int{0}})
	die(err)
	state := fw.Produce(ordOKey)
	verify(fw, b, state, sortedOrders, colOf, "Sort(orders.o_orderkey)")

	// Stage 2: filter o_custkey = 3 (constant FD).
	filtered, err := exec.Collect(exec.NewScan(sortedOrders, func(r exec.Row) bool { return r[1] == 3 }))
	die(err)
	state = fw.Infer(state, custFD)
	verify(fw, b, state, filtered, colOf, "Select(o_custkey = 3)")

	// Stage 3: merge join with lineitem sorted on l_orderkey.
	sortedLineitem, err := exec.Collect(&exec.Sort{In: exec.NewScan(toRows(data["lineitem"]), nil), Keys: []int{0}})
	die(err)
	joined, err := exec.Collect(exec.NewJoin(plan.MergeJoin,
		exec.NewScan(filtered, nil), exec.NewScan(sortedLineitem, nil), 0, 0, nil))
	die(err)
	state = fw.Infer(state, joinFD)
	verify(fw, b, state, joined, colOf, "MergeJoin(o_orderkey = l_orderkey)")

	fmt.Println("\nevery claimed ordering was physically satisfied ✓")

	// Act two: plan → compile → execute, with counters.
	_, g, err := tpcr.OrderStreamGraph()
	die(err)
	ds, ok := exec.TPCRLazyRegistry().Get("tpcr-mid")
	if !ok {
		panic("missing dataset")
	}
	ds.ApplyStats(g) // cost the plan against the dataset's real statistics
	a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
	die(err)
	res, err := optimizer.Optimize(a, optimizer.DefaultConfig(optimizer.ModeDFSM))
	die(err)
	pipe, err := ds.Runner(a).Compile(res.Best)
	die(err)
	rows, err := pipe.Execute()
	die(err)
	fmt.Printf("\norder-flow query over %s: %d rows, %d sorted\n",
		ds.Name, len(rows), pipe.RowsSorted())
	for _, op := range pipe.Ops {
		fmt.Printf("  %-14s %-44s rows=%d\n", op.Op, op.Detail, op.Rows)
	}
	if pipe.RowsSorted() != 0 {
		panic("the order-aware plan should not sort")
	}
}

func verify(fw *orderopt.Framework, b *orderopt.Builder, s orderopt.State,
	rows []exec.Row, colOf map[orderopt.Attr]int, stage string) {

	fmt.Printf("%s (%d rows):\n", stage, len(rows))
	checks := [][]orderopt.Attr{
		{b.Attr("o_orderkey")},
		{b.Attr("l_orderkey")},
		{b.Attr("o_orderkey"), b.Attr("o_custkey")},
	}
	for _, attrs := range checks {
		o := b.Ordering(attrs...)
		claimed := fw.Contains(s, o)
		status := "not claimed"
		if claimed {
			cols := make([]int, len(attrs))
			ok := true
			for i, a := range attrs {
				cols[i] = colOf[a]
				if len(rows) > 0 && cols[i] >= len(rows[0]) {
					ok = false
				}
			}
			if !ok {
				status = "claimed (column not in stream yet)"
			} else if exec.SatisfiesOrdering(rows, cols) {
				status = "claimed and physically satisfied ✓"
			} else {
				status = "claimed but VIOLATED ✗"
			}
		}
		fmt.Printf("  %-40s %s\n", b.Interner().Format(b.Registry(), o), status)
		if status == "claimed but VIOLATED ✗" {
			panic("ordering claim violated")
		}
	}
}

func die(err error) {
	if err != nil {
		panic(err)
	}
}
