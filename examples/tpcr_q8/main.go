// Tpcr_q8 reproduces the paper's §6.2 and §7 experiments on TPC-R
// Query 8: the preparation step with and without pruning, then plan
// generation with the Simmen baseline and the DFSM framework inside the
// identical bottom-up plan generator.
package main

import (
	"fmt"

	"orderopt/internal/experiments"
	"orderopt/internal/sqlparse"
	"orderopt/internal/tpcr"
)

func main() {
	fmt.Println("TPC-R Query 8 (the paper's §6.2 query):")
	fmt.Println(tpcr.Query8SQL)

	// The SQL text parses and binds against the TPC-R schema — the
	// derived table is flattened into the eight-relation join graph.
	stmt, err := sqlparse.Parse(tpcr.Query8SQL)
	die(err)
	bq, err := sqlparse.Bind(stmt, tpcr.Schema())
	die(err)
	fmt.Printf("bound: %d relations, %d join edges, GROUP BY/ORDER BY on %s\n\n",
		len(bq.Graph.Relations), len(bq.Graph.Edges),
		bq.Graph.ColumnName(bq.Graph.GroupBy[0]))

	fmt.Println("=== §6.2: preparation step, with and without pruning ===")
	prep, err := experiments.PrepQ8()
	die(err)
	fmt.Print(experiments.FormatPrep(prep))
	fmt.Printf("\n(paper, AMD Athlon XP 1800+: NFSM 376→38 nodes, DFSM 80→24 nodes,\n" +
		" time 16ms→0.2ms, precomputed 3040B→912B — the shape, not the\n" +
		" absolute numbers, is what reproduces)\n\n")

	fmt.Println("=== §7: plan generation, Simmen vs our algorithm ===")
	q8, err := experiments.Q8()
	die(err)
	fmt.Print(experiments.FormatQ8(q8))
	fmt.Printf("\n(paper: t 262ms vs 52ms, #Plans 200536 vs 123954, t/plan 1.31µs vs\n" +
		" 0.42µs, memory 329KB vs 136KB)\n")
}

func die(err error) {
	if err != nil {
		panic(err)
	}
}
