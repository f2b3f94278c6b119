package exec_test

import (
	"fmt"

	"orderopt/internal/exec"
	"orderopt/internal/optimizer"
	"orderopt/internal/query"
	"orderopt/internal/tpcr"
)

// ExampleRunner plans the TPC-R order-flow query, executes the chosen
// plan over a registered dataset, and shows that the pipeline
// delivered the required order without sorting a single row — the
// order-optimization framework's runtime payoff.
func ExampleRunner() {
	_, g, err := tpcr.OrderStreamGraph()
	if err != nil {
		panic(err)
	}
	ds, _ := exec.TPCRLazyRegistry().Get("tpcr-small")
	ds.ApplyStats(g) // plan against the dataset's real statistics

	a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		panic(err)
	}
	res, err := optimizer.Optimize(a, optimizer.DefaultConfig(optimizer.ModeDFSM))
	if err != nil {
		panic(err)
	}

	pipe, err := ds.Runner(a).Compile(res.Best)
	if err != nil {
		panic(err)
	}
	rows, err := pipe.Execute()
	if err != nil {
		panic(err)
	}
	fmt.Printf("rows: %d, rows sorted: %d\n", len(rows), pipe.RowsSorted())
	// Output:
	// rows: 29, rows sorted: 0
}

// ExampleRunner_Compile compiles a plan into a pipeline and reads the
// per-operator counters after execution — the executor's EXPLAIN
// ANALYZE.
func ExampleRunner_Compile() {
	_, g, err := tpcr.OrderStreamGraph()
	if err != nil {
		panic(err)
	}
	ds, _ := exec.TPCRLazyRegistry().Get("tpcr-mid")
	ds.ApplyStats(g)

	a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		panic(err)
	}
	res, err := optimizer.Optimize(a, optimizer.DefaultConfig(optimizer.ModeDFSM))
	if err != nil {
		panic(err)
	}

	pipe, err := ds.Runner(a).Compile(res.Best)
	if err != nil {
		panic(err)
	}
	if _, err := pipe.Execute(); err != nil {
		panic(err)
	}
	for _, op := range pipe.Ops {
		fmt.Printf("%s %s rows=%d\n", op.Op, op.Detail, op.Rows)
	}
	// Output:
	// MergeJoin orders.o_orderkey = lineitem.l_orderkey rows=2314
	// HashJoin customer.c_custkey = orders.o_custkey rows=351
	// IndexScan orders/orders_pk rows=351
	// TableScan customer rows=500
	// IndexScan lineitem/lineitem_orderkey rows=8000
}
