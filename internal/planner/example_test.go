package planner_test

import (
	"context"
	"fmt"

	"orderopt/internal/planner"
	"orderopt/internal/tpcr"
)

const exampleSQL = "select * from nation, region " +
	"where n_regionkey = r_regionkey order by n_name"

// ExamplePlanner_PlanContext shows the planner's amortization from the
// outside: the first plan call of a statement runs the full pipeline
// (cold) and stores the best plan on the prepared statement; the second
// returns it — same cost, no dynamic programming.
func ExamplePlanner_PlanContext() {
	pl := planner.New(planner.DefaultConfig(tpcr.Schema()))

	first, err := pl.PlanContext(context.Background(), exampleSQL)
	if err != nil {
		panic(err)
	}
	second, err := pl.PlanContext(context.Background(), exampleSQL)
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

// ExamplePlanner_PlanQueryContext isolates the prepared-statement level:
// parsing, binding, analysis and DFSM compilation happen once, in the
// statement's first plan call, and a later call of the same text answers
// from the same PreparedQuery. The statement's prepared optimizer inputs
// re-run only the dynamic programming, to the same cost.
func ExamplePlanner_PlanQueryContext() {
	pl := planner.New(planner.DefaultConfig(tpcr.Schema()))

	a, q, err := pl.PlanQueryContext(context.Background(), exampleSQL)
	if err != nil {
		panic(err)
	}
	b, again, err := pl.PlanQueryContext(context.Background(), exampleSQL)
	if err != nil {
		panic(err)
	}
	rerun, err := q.Prepared().Run()
	if err != nil {
		panic(err)
	}
	fmt.Println("source:", a.Source, b.Source)
	fmt.Println("same statement:", q == again)
	fmt.Println("deterministic:", a.Cost == rerun.Best.Cost)
	// Output:
	// source: cold cachehit
	// same statement: true
	// deterministic: true
}
