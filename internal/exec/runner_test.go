package exec

import (
	"fmt"
	"testing"

	"orderopt/internal/catalog"
	"orderopt/internal/optimizer"
	"orderopt/internal/plan"
	"orderopt/internal/query"
	"orderopt/internal/querygen"
)

// fixtureRunner runs plans for a over hand-rolled row-major data, with
// a view of every index the query's tables define.
func fixtureRunner(a *query.Analysis, data map[string][][]int64) *Runner {
	cat := catalog.New()
	for _, rel := range a.Graph.Relations {
		if _, ok := cat.Table(rel.Table.Name); !ok {
			cat.MustAdd(rel.Table)
		}
	}
	return NewDataset("fixture", "hand-rolled test data", cat, data).Runner(a)
}

// TestOptimizedPlansProduceCorrectResults is the system-level check: for
// random queries, optimize with BOTH order-optimization components,
// execute the chosen plans over real data, and compare against
// brute-force evaluation. A wrong ordering claim surfaces either as a
// merge-join sortedness error or as a result mismatch.
func TestOptimizedPlansProduceCorrectResults(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		for _, extra := range []int{0, 1} {
			if extra > n*(n-1)/2-(n-1) {
				continue
			}
			for seed := int64(0); seed < 8; seed++ {
				name := fmt.Sprintf("n%d_e%d_s%d", n, extra, seed)
				_, g, err := querygen.Generate(querygen.Spec{
					Relations: n, ExtraEdges: extra, Seed: seed,
					ColumnsPerTable: 3,
				})
				if err != nil {
					t.Fatal(err)
				}
				data := querygen.GenerateData(g, 6, seed+100)

				var reference []Row
				for _, mode := range []optimizer.Mode{optimizer.ModeDFSM, optimizer.ModeSimmen} {
					a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
					if err != nil {
						t.Fatal(err)
					}
					res, err := optimizer.Optimize(a, optimizer.DefaultConfig(mode))
					if err != nil {
						t.Fatalf("%s %v: %v", name, mode, err)
					}
					runner := fixtureRunner(a, data)
					rows, schema, err := runner.Run(res.Best)
					if err != nil {
						t.Fatalf("%s %v: executing the optimal plan failed: %v\n%s",
							name, mode, err, res.Best)
					}
					got := Canonicalize(rows, schema, g)

					if reference == nil {
						ref, refSchema, err := BruteForce(a, data)
						if err != nil {
							t.Fatal(err)
						}
						reference = Canonicalize(ref, refSchema, g)
					}
					if !sameMultiset(got, reference) {
						t.Fatalf("%s %v: plan result (%d rows) differs from brute force (%d rows)\n%s",
							name, mode, len(got), len(reference), res.Best)
					}

					// The final ORDER BY must hold physically.
					if len(g.OrderBy) > 0 {
						cols := make([]int, len(g.OrderBy))
						ok := true
						for i, c := range g.OrderBy {
							cols[i] = colPos(schema, c)
							if cols[i] < 0 {
								ok = false
							}
						}
						if ok && !SatisfiesOrdering(rows, cols) {
							t.Fatalf("%s %v: ORDER BY violated by the final plan\n%s",
								name, mode, res.Best)
						}
					}
				}
			}
		}
	}
}

// TestGroupedPlansProduceCorrectResults extends the system-level check
// to GROUP BY queries: the chosen plan (sorted or hash grouping) must
// produce exactly the groups brute-force evaluation implies, and the
// sorted-group operator's runtime validation must never fire.
func TestGroupedPlansProduceCorrectResults(t *testing.T) {
	for _, n := range []int{2, 3} {
		for seed := int64(0); seed < 10; seed++ {
			name := fmt.Sprintf("n%d_s%d", n, seed)
			_, g, err := querygen.Generate(querygen.Spec{
				Relations: n, Seed: seed, ColumnsPerTable: 3, WithGroupBy: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			data := querygen.GenerateData(g, 6, seed+300)

			a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := optimizer.Optimize(a, optimizer.DefaultConfig(optimizer.ModeDFSM))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			runner := fixtureRunner(a, data)
			rows, schema, err := runner.Run(res.Best)
			if err != nil {
				t.Fatalf("%s: executing the grouped plan failed: %v\n%s", name, err, res.Best)
			}

			// Reference: brute force, then hash-group on the same keys.
			ref, refSchema, err := BruteForce(a, data)
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]int, len(g.GroupBy))
			for i, c := range g.GroupBy {
				keys[i] = colPos(refSchema, c)
			}
			refGroups, err := collect(&GroupHash{In: NewScan(ref, nil), Keys: keys})
			if err != nil {
				t.Fatal(err)
			}
			if !sameMultiset(rows, refGroups) {
				t.Fatalf("%s: grouped plan (%d groups) differs from reference (%d groups)\n%s",
					name, len(rows), len(refGroups), res.Best)
			}

			// The schema of a grouped plan is the grouping columns
			// followed by the aggregate column.
			if len(schema) != len(g.GroupBy)+1 || schema[len(schema)-1] != AggColumn {
				t.Fatalf("%s: grouped schema = %v", name, schema)
			}
		}
	}
}

// TestRunnerMergeJoinPlan builds a hand-written merge-join plan and runs
// it, checking schema bookkeeping and residual-predicate filtering.
func TestRunnerMergeJoinPlan(t *testing.T) {
	_, g, err := querygen.Generate(querygen.Spec{
		Relations: 2, ExtraEdges: 0, Seed: 3, ColumnsPerTable: 2,
		SelectionProb: -1, // no selections
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := query.Analyze(g, query.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data := querygen.GenerateData(g, 5, 1)

	pred := g.Edges[0].Preds[0]
	lOrd := a.Ordering(pred.Left)
	rOrd := a.Ordering(pred.Right)
	p := &plan.Node{
		Op: plan.MergeJoin, Edge: 0, Pred: 0,
		Left: &plan.Node{
			Op: plan.Sort, SortOrd: lOrd,
			Left: &plan.Node{Op: plan.TableScan, Rel: pred.Left.Rel},
		},
		Right: &plan.Node{
			Op: plan.Sort, SortOrd: rOrd,
			Left: &plan.Node{Op: plan.TableScan, Rel: pred.Right.Rel},
		},
	}
	runner := fixtureRunner(a, data)
	rows, schema, err := runner.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(schema) != 4 {
		t.Fatalf("schema = %v", schema)
	}
	ref, refSchema, err := BruteForce(a, data)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(Canonicalize(rows, schema, g), Canonicalize(ref, refSchema, g)) {
		t.Fatal("hand-written merge join disagrees with brute force")
	}
}

// TestRunnerUnsortedMergeJoinFails: a merge join without the required
// sorts must be rejected at execution time — this is the mechanism that
// would expose unsound contains() claims.
func TestRunnerUnsortedMergeJoinFails(t *testing.T) {
	_, g, err := querygen.Generate(querygen.Spec{
		Relations: 2, ExtraEdges: 0, Seed: 3, ColumnsPerTable: 2, SelectionProb: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := query.Analyze(g, query.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Data engineered to be unsorted on every column.
	data := map[string][][]int64{}
	for r := range g.Relations {
		name := g.Relations[r].Table.Name
		data[name] = [][]int64{{5, 5}, {1, 1}, {3, 3}}
	}
	pred := g.Edges[0].Preds[0]
	p := &plan.Node{
		Op: plan.MergeJoin, Edge: 0, Pred: 0,
		Left:  &plan.Node{Op: plan.TableScan, Rel: pred.Left.Rel},
		Right: &plan.Node{Op: plan.TableScan, Rel: pred.Right.Rel},
	}
	if _, _, err := fixtureRunner(a, data).Run(p); err == nil {
		t.Fatal("unsorted merge join must fail at runtime")
	}
}

func TestRunnerErrors(t *testing.T) {
	_, g, err := querygen.Generate(querygen.Spec{Relations: 2, Seed: 1, ColumnsPerTable: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := query.Analyze(g, query.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runner := fixtureRunner(a, nil)
	if _, _, err := runner.Run(&plan.Node{Op: plan.TableScan, Rel: 0}); err == nil {
		t.Error("missing data must fail")
	}
	if _, _, err := runner.Run(&plan.Node{Op: plan.Op(99)}); err == nil {
		t.Error("unknown operator must fail")
	}
	if _, _, err := (&Runner{A: a}).Run(&plan.Node{Op: plan.TableScan, Rel: 0}); err == nil {
		t.Error("a runner without a dataset must fail, not panic")
	}
}

// TestRowsSortedUnderLimit: a Sort under a Limit drains its whole
// input, so RowsSorted counts the N rows it sorted, not the k it
// emitted.
func TestRowsSortedUnderLimit(t *testing.T) {
	_, g, err := querygen.Generate(querygen.Spec{
		Relations: 1, Seed: 3, ColumnsPerTable: 2, SelectionProb: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := query.Analyze(g, query.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const n, k = 300, 10
	data := querygen.GenerateData(g, n, 1)
	p := &plan.Node{
		Op: plan.Limit, Limit: k,
		Left: &plan.Node{
			Op: plan.Sort, SortOrd: a.Ordering(query.ColumnRef{Rel: 0, Col: 1}),
			Left: &plan.Node{Op: plan.TableScan, Rel: 0},
		},
	}
	for _, timed := range []bool{true, false} {
		runner := fixtureRunner(a, data)
		runner.DisableTiming = !timed
		pipe, err := runner.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := pipe.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != k {
			t.Fatalf("timed=%v: %d rows, want %d", timed, len(rows), k)
		}
		if got := pipe.RowsSorted(); got != n {
			t.Errorf("timed=%v: RowsSorted = %d, want the sort's whole input %d", timed, got, n)
		}
	}
}

// TestPipelineStats: the compiled pipeline reports per-operator row
// counts and (when enabled) wall time, except for the scans, whose time
// is their consumers', and RowsSorted totals the sort traffic.
func TestPipelineStats(t *testing.T) {
	_, g, err := querygen.Generate(querygen.Spec{
		Relations: 2, ExtraEdges: 0, Seed: 3, ColumnsPerTable: 2, SelectionProb: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := query.Analyze(g, query.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data := querygen.GenerateData(g, 8, 1)

	pred := g.Edges[0].Preds[0]
	p := &plan.Node{
		Op: plan.MergeJoin, Edge: 0, Pred: 0,
		Left: &plan.Node{
			Op: plan.Sort, SortOrd: a.Ordering(pred.Left),
			Left: &plan.Node{Op: plan.TableScan, Rel: pred.Left.Rel},
		},
		Right: &plan.Node{
			Op: plan.Sort, SortOrd: a.Ordering(pred.Right),
			Left: &plan.Node{Op: plan.TableScan, Rel: pred.Right.Rel},
		},
	}
	runner := fixtureRunner(a, data)
	pipe, err := runner.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pipe.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(pipe.Ops) != 5 {
		t.Fatalf("ops = %v", pipe.Ops)
	}
	if pipe.Ops[0].Op != "MergeJoin" || pipe.Ops[0].Rows != int64(len(rows)) {
		t.Errorf("root op stats = %+v, rows = %d", pipe.Ops[0], len(rows))
	}
	// Both sorts saw all 8 base rows each.
	if got := pipe.RowsSorted(); got != 16 {
		t.Errorf("RowsSorted = %d, want 16", got)
	}
	for _, op := range pipe.Ops {
		if op.Op == "TableScan" {
			if op.Rows != 8 || op.TimeNs != 0 {
				t.Errorf("scan stats = %+v, want 8 rows and 0 ns", op)
			}
		} else if op.TimeNs == 0 && op.Rows > 0 {
			t.Errorf("timing enabled but %s has TimeNs 0", op.Op)
		}
	}

	// Timing off: rows still counted, clocks zero.
	runner2 := fixtureRunner(a, data)
	runner2.DisableTiming = true
	pipe2, err := runner2.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe2.Execute(); err != nil {
		t.Fatal(err)
	}
	for _, op := range pipe2.Ops {
		if op.TimeNs != 0 {
			t.Errorf("timing disabled but %s has TimeNs %d", op.Op, op.TimeNs)
		}
	}
	if pipe2.Ops[0].Rows != int64(len(rows)) {
		t.Error("row counting must survive DisableTiming")
	}
}

// TestOrderByEquatedColumn is the lifted executor restriction: a query
// grouping by t0.c0 but ordering by the equated t1.c0 (t0.c0 = t1.c0)
// must execute — the ORDER BY column is resolved through the join
// equivalence class even though the group output only carries t0.c0.
func TestOrderByEquatedColumn(t *testing.T) {
	_, g, err := querygen.Generate(querygen.Spec{
		Relations: 2, Seed: 5, ColumnsPerTable: 3, SelectionProb: -1, NoOrderBy: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pred := g.Edges[0].Preds[0]
	g.GroupBy = []query.ColumnRef{pred.Left}
	g.OrderBy = []query.ColumnRef{pred.Right} // the equated twin
	data := querygen.GenerateData(g, 10, 7)

	a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimizer.Optimize(a, optimizer.DefaultConfig(optimizer.ModeDFSM))
	if err != nil {
		t.Fatal(err)
	}
	runner := fixtureRunner(a, data)
	rows, schema, err := runner.Run(res.Best)
	if err != nil {
		t.Fatalf("executing ORDER BY over an equated column failed: %v\n%s", err, res.Best)
	}
	if len(schema) != 2 || schema[0] != pred.Left || schema[1] != AggColumn {
		t.Fatalf("schema = %v", schema)
	}
	// The group keys equal the join values, so ordering by the twin is
	// ordering by the key: the output must be sorted on column 0.
	if !SatisfiesOrdering(rows, []int{0}) {
		t.Fatalf("output not ordered by the equated column:\n%v", rows)
	}
	// Groups agree with brute force + hash grouping.
	ref, refSchema, err := BruteForce(a, data)
	if err != nil {
		t.Fatal(err)
	}
	refGroups, err := collect(&GroupHash{In: NewScan(ref, nil), Keys: []int{colPos(refSchema, pred.Left)}})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(rows, refGroups) {
		t.Fatalf("grouped result differs from reference\n%v\nvs\n%v", rows, refGroups)
	}
}

// TestRunnerIndexedData: an index scan streams the dataset's presorted
// view — its table's rows in index order, sorting nothing at runtime —
// and a dataset holding no view of the index does not compile the scan.
func TestRunnerIndexedData(t *testing.T) {
	cat, g, err := querygen.Generate(querygen.Spec{
		Relations: 2, Seed: 9, ColumnsPerTable: 2, SelectionProb: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	// Find a relation with an index to scan.
	rel, ix := -1, -1
	for r := range a.IndexOrders {
		if len(a.IndexOrders[r]) > 0 {
			rel, ix = r, 0
			break
		}
	}
	if rel < 0 {
		t.Skip("generated schema has no indexes for this seed")
	}
	ds := QuerygenDataset("t", cat, g, 12, 3)
	p := &plan.Node{Op: plan.IndexScan, Rel: rel, Index: ix}

	pipe, err := ds.Runner(a).Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	rows1, err := pipe.Execute()
	if err != nil {
		t.Fatal(err)
	}
	t1 := g.Relations[rel].Table
	if !sameMultiset(rows1, ds.Tables[t1.Name]) || pipe.RowsSorted() != 0 {
		t.Fatalf("index scan emitted %d rows sorting %d, want the table's %d sorting none",
			len(rows1), pipe.RowsSorted(), len(ds.Tables[t1.Name]))
	}
	raw := map[string][][]int64{}
	for name, rows := range ds.Tables {
		for _, r := range rows {
			raw[name] = append(raw[name], r)
		}
	}
	if _, err := NewDataset("plain", "no catalog, no views", nil, raw).Runner(a).Compile(p); err == nil {
		t.Fatal("an index scan without a maintained view compiled")
	}
	keys := make([]int, len(t1.Indexes[ix].Columns))
	for i, name := range t1.Indexes[ix].Columns {
		keys[i] = t1.ColumnIndex(name)
	}
	if !SatisfiesOrdering(rows1, keys) {
		t.Fatal("indexed scan not in index order")
	}
}
