package planner_test

import (
	"fmt"

	"orderopt/internal/planner"
	"orderopt/internal/tpcr"
)

const exampleSQL = "select * from nation, region " +
	"where n_regionkey = r_regionkey order by n_name"

// ExamplePlanner_Plan shows the planner's amortization from the
// outside: the first Plan of a statement runs the full pipeline (cold)
// and stores the best plan on the prepared statement; the second returns
// it — same cost, no dynamic programming.
func ExamplePlanner_Plan() {
	pl := planner.New(planner.DefaultConfig(tpcr.Schema()))

	first, err := pl.Plan(exampleSQL)
	if err != nil {
		panic(err)
	}
	second, err := pl.Plan(exampleSQL)
	if err != nil {
		panic(err)
	}
	fmt.Println("first: ", first.Source)
	fmt.Println("second:", second.Source)
	fmt.Println("same cost:", first.Cost == second.Cost)
	// Output:
	// first:  cold
	// second: cachehit
	// same cost: true
}

// ExamplePlanner_Prepare isolates the prepared-statement level: parsing,
// binding, analysis and DFSM compilation happen once in Prepare. The
// statement's first Plan runs only the dynamic programming, on pooled
// scratch (source "prepared"), and stores its plan, which the second
// Plan returns; the prepared optimizer inputs re-run the DP to the same
// cost.
func ExamplePlanner_Prepare() {
	pl := planner.New(planner.DefaultConfig(tpcr.Schema()))

	q, err := pl.Prepare(exampleSQL)
	if err != nil {
		panic(err)
	}
	a, err := q.Plan()
	if err != nil {
		panic(err)
	}
	b, err := q.Plan()
	if err != nil {
		panic(err)
	}
	rerun, err := q.Prepared().Run()
	if err != nil {
		panic(err)
	}
	fmt.Println("source:", a.Source, b.Source)
	fmt.Println("deterministic:", a.Cost == rerun.Best.Cost)
	// Output:
	// source: prepared cachehit
	// deterministic: true
}
