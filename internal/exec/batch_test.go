package exec

import (
	"fmt"
	"testing"

	"orderopt/internal/optimizer"
	"orderopt/internal/query"
	"orderopt/internal/querygen"
	"orderopt/internal/tpcr"
)

// vecBatchSizes are the vector widths the equivalence tests sweep:
// degenerate (1), tiny with mid-batch state carry (3), and the default.
var vecBatchSizes = []int{1, 3, DefaultBatchSize}

// TestVectorizedMatchesRowPath is the batch path's system-level check:
// for random queries, the vectorized execution of the chosen plan must
// produce exactly the row path's output — same rows, same order — at
// every batch size, because the vec operators replicate the row
// operators' order semantics (probe order with build-order buckets,
// insertion-order groups), not just their multiset.
func TestVectorizedMatchesRowPath(t *testing.T) {
	vectorized := 0
	for _, spec := range []querygen.Spec{
		{Relations: 3, ColumnsPerTable: 3},
		{Relations: 4, ColumnsPerTable: 3},
		{Relations: 3, ColumnsPerTable: 3, WithGroupBy: true},
	} {
		for seed := int64(0); seed < 8; seed++ {
			spec.Seed = seed
			name := fmt.Sprintf("n%d_g%v_s%d", spec.Relations, spec.WithGroupBy, seed)
			_, g, err := querygen.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			data := querygen.GenerateData(g, 9, seed+700)
			a, err := query.Analyze(g, query.AnalyzeOptions{
				UseIndexes: true, TrackGroupings: spec.WithGroupBy,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Disable merge joins so the sweep actually exercises hash
			// spines (the vectorized operator set) rather than testing
			// the row path against itself.
			cfg := optimizer.DefaultConfig(optimizer.ModeDFSM)
			cfg.DisableMergeJoin = true
			res, err := optimizer.Optimize(a, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			row := fixtureRunner(a, data)
			want, wantSchema, err := row.Run(res.Best)
			if err != nil {
				t.Fatalf("%s: row path: %v\n%s", name, err, res.Best)
			}
			for _, bs := range vecBatchSizes {
				vec := fixtureRunner(a, data)
				vec.Vectorize, vec.BatchSize = true, bs
				p, err := vec.Compile(res.Best)
				if err != nil {
					t.Fatalf("%s bs=%d: vec compile: %v\n%s", name, bs, err, res.Best)
				}
				got, err := p.Execute()
				if err != nil {
					t.Fatalf("%s bs=%d: vec path: %v\n%s", name, bs, err, res.Best)
				}
				if len(p.Schema) != len(wantSchema) {
					t.Fatalf("%s bs=%d: schema %v != %v", name, bs, p.Schema, wantSchema)
				}
				for i := range p.Schema {
					if p.Schema[i] != wantSchema[i] {
						t.Fatalf("%s bs=%d: schema %v != %v", name, bs, p.Schema, wantSchema)
					}
				}
				if !rowsEqual(got, want) {
					t.Fatalf("%s bs=%d: vectorized result (%d rows) differs from row path (%d rows)\n%s",
						name, bs, len(got), len(want), res.Best)
				}
				for _, op := range p.Ops {
					if op.Batches > 0 {
						vectorized++
					}
				}
			}
		}
	}
	if vectorized == 0 {
		t.Fatal("no pipeline in the sweep actually ran vectorized")
	}
}

// TestVectorizedTPCR runs the order-stream and Q8 workloads over the
// real dataset (maintained index views, range predicates) vectorized
// and row-at-a-time, pinning identical results and that the vec path
// engaged.
func TestVectorizedTPCR(t *testing.T) {
	reg := TPCRRegistry()
	ds, _ := reg.Get("tpcr-small")
	for _, tc := range []struct {
		name  string
		graph func() (_ interface{}, g *query.Graph, err error)
	}{
		{"orders", func() (interface{}, *query.Graph, error) {
			c, g, err := tpcr.OrderStreamGraph()
			return c, g, err
		}},
		{"q8", func() (interface{}, *query.Graph, error) {
			c, g, err := tpcr.Query8Graph()
			return c, g, err
		}},
	} {
		_, g, err := tc.graph()
		if err != nil {
			t.Fatal(err)
		}
		ds.ApplyStats(g)
		a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true, TrackGroupings: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg := optimizer.DefaultConfig(optimizer.ModeDFSM)
		// Force a hash spine through the vec operators (at tpcr-small
		// cardinalities the DP would otherwise pick merge or nested-loop
		// joins).
		cfg.DisableMergeJoin, cfg.DisableNLJoin = true, true
		res, err := optimizer.Optimize(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		row := ds.Runner(a)
		want, _, err := row.Run(res.Best)
		if err != nil {
			t.Fatalf("%s: row path: %v\n%s", tc.name, err, res.Best)
		}
		for _, bs := range vecBatchSizes {
			vec := ds.Runner(a)
			vec.Vectorize, vec.BatchSize = true, bs
			p, err := vec.Compile(res.Best)
			if err != nil {
				t.Fatalf("%s bs=%d: %v", tc.name, bs, err)
			}
			got, err := p.Execute()
			if err != nil {
				t.Fatalf("%s bs=%d: %v", tc.name, bs, err)
			}
			if !rowsEqual(got, want) {
				t.Fatalf("%s bs=%d: vectorized result (%d rows) differs from row path (%d rows)\n%s",
					tc.name, bs, len(got), len(want), res.Best)
			}
			var batches int64
			for _, op := range p.Ops {
				batches += op.Batches
			}
			if batches == 0 {
				t.Fatalf("%s bs=%d: hash-spine plan did not vectorize\n%s", tc.name, bs, res.Best)
			}
		}
	}
}

// TestVecScanWindows pins the scan's three shapes directly: zero-copy
// base windows, selection vectors under constant predicates, and dense
// gathers under an index permutation.
func TestVecScanWindows(t *testing.T) {
	cols := [][]int64{
		{5, 1, 4, 2, 3, 6},
		{50, 10, 40, 20, 30, 60},
	}
	// Base order, no predicates: windows slice the table itself.
	s := &vecScan{cols: cols, total: 6, size: 4}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	var b Batch
	ok, err := s.NextBatch(&b)
	if err != nil || !ok || b.N != 4 || b.Sel != nil {
		t.Fatalf("first window: ok=%v err=%v N=%d Sel=%v", ok, err, b.N, b.Sel)
	}
	if &b.Cols[0][0] != &cols[0][0] {
		t.Fatal("base-order window must alias the table (zero copy)")
	}
	ok, _ = s.NextBatch(&b)
	if !ok || b.N != 2 || b.Cols[0][1] != 6 {
		t.Fatalf("second window: ok=%v N=%d", ok, b.N)
	}
	if ok, _ := s.NextBatch(&b); ok {
		t.Fatal("scan past end")
	}

	// Constant predicate: a selection vector over the window.
	pred := query.ConstPred{
		Col: query.ColumnRef{Rel: 0, Col: 0}, Kind: query.RangePred,
		Literal: 3, HasLiteral: true, Selectivity: 0.5,
	}
	s = &vecScan{cols: cols, total: 6, size: 6, preds: []query.ConstPred{pred}}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	ok, _ = s.NextBatch(&b)
	if !ok || b.N != 4 || b.Sel == nil {
		t.Fatalf("filtered window: ok=%v N=%d Sel=%v", ok, b.N, b.Sel)
	}
	var got []int64
	for i := 0; i < b.N; i++ {
		got = append(got, b.Cols[1][b.Row(i)])
	}
	want := []int64{50, 40, 30, 60}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("filtered values = %v, want %v", got, want)
		}
	}

	// Permutation: dense gather in index order, predicate folded in.
	perm := []int32{1, 3, 4, 2, 0, 5} // sorts column 0
	s = &vecScan{cols: cols, total: 6, size: 4, perm: perm, preds: []query.ConstPred{pred}}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for {
		ok, err := s.NextBatch(&b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if b.Sel != nil {
			t.Fatal("gathered batches are dense")
		}
		for i := 0; i < b.N; i++ {
			got = append(got, b.Cols[0][i])
		}
	}
	want = []int64{3, 4, 5, 6} // ≥ 3, in index order
	if len(got) != len(want) {
		t.Fatalf("gathered = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gathered = %v, want %v", got, want)
		}
	}
}

// TestVecHashJoinDuplicates pins the probe's match cursor: duplicate
// keys on both sides with a vector width smaller than the fan-out, so
// buckets are carried across output batches — emission must stay probe
// order with build-stream-order buckets, the row HashJoin's sequence.
func TestVecHashJoinDuplicates(t *testing.T) {
	probe := [][]int64{{7, 7, 8, 9, 7}}
	build := []Row{{7, 100}, {8, 200}, {7, 300}, {7, 400}}
	for _, size := range []int{1, 2, 1024} {
		j := &vecHashJoin{
			left:  &vecScan{cols: probe, total: 5, size: size},
			build: NewScan(build),
			lkey:  0, rkey: 0, lw: 1, rw: 2, size: size,
		}
		var got []Row
		if err := j.Open(); err != nil {
			t.Fatal(err)
		}
		var b Batch
		for {
			ok, err := j.NextBatch(&b)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			for i := 0; i < b.N; i++ {
				li := b.Row(i)
				got = append(got, Row{b.Cols[0][li], b.Cols[1][li], b.Cols[2][li]})
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		want := []Row{
			{7, 7, 100}, {7, 7, 300}, {7, 7, 400},
			{7, 7, 100}, {7, 7, 300}, {7, 7, 400},
			{8, 8, 200},
			{7, 7, 100}, {7, 7, 300}, {7, 7, 400},
		}
		if !rowsEqual(got, want) {
			t.Fatalf("size %d: join output %v, want %v", size, got, want)
		}
	}
}

// TestVecGroupHashAggregates pins the vectorized grouping semantics
// against the row operator: shared count, first-row min/max seeding,
// AVG as truncating integer division, insertion-order emission.
func TestVecGroupHashAggregates(t *testing.T) {
	rows := []Row{{1, 10}, {2, 7}, {1, 5}, {2, 8}, {1, 6}}
	cols := [][]int64{{1, 2, 1, 2, 1}, {10, 7, 5, 8, 6}}
	specs := []AggSpec{
		{Fn: AggCount}, {Fn: AggSum, Col: 1}, {Fn: AggMin, Col: 1},
		{Fn: AggMax, Col: 1}, {Fn: AggAvg, Col: 1},
	}
	want, err := Collect(&GroupHash{In: NewScan(rows), Keys: []int{0}, Aggs: specs})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 2, 1024} {
		g := &vecGroupHash{
			in:   &vecScan{cols: cols, total: 5, size: size},
			keys: []int{0}, specs: specs, size: size, width: 2,
		}
		if err := g.Open(); err != nil {
			t.Fatal(err)
		}
		var got []Row
		var b Batch
		for {
			ok, err := g.NextBatch(&b)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			for i := 0; i < b.N; i++ {
				li := b.Row(i)
				row := make(Row, len(b.Cols))
				for c := range b.Cols {
					row[c] = b.Cols[c][li]
				}
				got = append(got, row)
			}
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		if !rowsEqual(got, want) {
			t.Fatalf("size %d: groups %v, want %v", size, got, want)
		}
	}
}
