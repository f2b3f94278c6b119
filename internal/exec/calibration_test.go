package exec

import (
	"testing"

	"orderopt/internal/optimizer"
	"orderopt/internal/query"
	"orderopt/internal/tpcr"

	"orderopt/internal/plan"
)

// TestQ8CostCalibration pins the corrected plan choice on q8 over
// tpcr-large statistics. Before the sort/hash recalibration the model
// underpriced sorting ~10x and overpriced hash probes, steering the
// DFSM tier into a merge-join pipeline the executor measured slower
// than the order-oblivious hash plan (the q8/tpcr-large inversion).
// With the constants calibrated against BenchmarkExecRuntime, the chosen
// plan must be the measured-faster shape: hash joins probing lineitem,
// no merge joins, and ordering paid only on the small post-join result
// (a top Sort feeding GroupSorted) — priced below the merge-join
// alternative.
func TestQ8CostCalibration(t *testing.T) {
	reg := TPCRLazyRegistry()
	ds, ok := reg.Get("tpcr-large")
	if !ok {
		t.Fatal("no dataset tpcr-large")
	}
	_, g, err := tpcr.Query8Graph()
	if err != nil {
		t.Fatal(err)
	}
	ds.ApplyStats(g)
	a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true, TrackGroupings: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimizer.Optimize(a, optimizer.DefaultConfig(optimizer.ModeDFSM))
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best

	if findOp(best, plan.MergeJoin) != nil {
		t.Fatalf("q8/tpcr-large still chooses a merge join:\n%s", best)
	}
	if findOp(best, plan.HashJoin) == nil {
		t.Fatalf("q8/tpcr-large plan has no hash join:\n%s", best)
	}
	if findOp(best, plan.GroupSorted) == nil {
		t.Fatalf("q8/tpcr-large plan does not group the sorted result:\n%s", best)
	}
	s := findOp(best, plan.Sort)
	if s == nil {
		t.Fatalf("expected a small top sort over the join result:\n%s", best)
	}
	if s.Card > 1000 {
		t.Fatalf("top sort over %.0f rows — ordering paid on a join input, not the result:\n%s", s.Card, best)
	}

	// The merge-join alternative the old constants preferred must now
	// cost more than the chosen hash pipeline.
	noHash := optimizer.DefaultConfig(optimizer.ModeDFSM)
	noHash.DisableHashJoin = true
	mres, err := optimizer.Optimize(a, noHash)
	if err != nil {
		t.Fatal(err)
	}
	if findOp(mres.Best, plan.MergeJoin) == nil {
		t.Fatalf("hash-free alternative contains no merge join:\n%s", mres.Best)
	}
	if best.Cost >= mres.Best.Cost {
		t.Fatalf("inversion: hash plan cost %.1f not below merge plan cost %.1f",
			best.Cost, mres.Best.Cost)
	}

	// The chosen plan executes, and runtime confirms ordering was paid
	// only on the small result: rows-sorted stays far below the 40k
	// lineitem probe input the old plan merged.
	r := ds.Runner(a)
	p, err := r.Compile(best)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(); err != nil {
		t.Fatal(err)
	}
	if n := p.RowsSorted(); n <= 0 || n >= 1000 {
		t.Fatalf("rows sorted = %d, want small positive (result-only sort)", n)
	}
}
