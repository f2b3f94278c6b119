package querygen

import (
	"errors"
	"testing"

	"orderopt/internal/query"
)

func TestGenerateDeterministic(t *testing.T) {
	s := Spec{Relations: 6, ExtraEdges: 1, Seed: 42}
	_, g1, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	_, g2, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(g1.Edges) != len(g2.Edges) {
		t.Fatal("generation not deterministic")
	}
	for i := range g1.Edges {
		a1, b1 := g1.Edges[i].Rels()
		a2, b2 := g2.Edges[i].Rels()
		if a1 != a2 || b1 != b2 {
			t.Fatalf("edge %d differs: (%d,%d) vs (%d,%d)", i, a1, b1, a2, b2)
		}
	}
}

func TestGenerateEdgeCounts(t *testing.T) {
	for _, extra := range []int{0, 1, 2} {
		_, g, err := Generate(Spec{Relations: 7, ExtraEdges: extra, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(g.Edges); got != 6+extra {
			t.Errorf("extra=%d: edges = %d, want %d", extra, got, 6+extra)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("extra=%d: invalid graph: %v", extra, err)
		}
	}
}

func TestGenerateChainIsConnected(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		_, g, err := Generate(Spec{Relations: 5, ExtraEdges: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		full := uint64(1)<<uint(len(g.Relations)) - 1
		if !g.Connected(full) {
			t.Fatalf("seed %d: graph not connected", seed)
		}
		if len(g.OrderBy) == 0 {
			t.Fatalf("seed %d: missing ORDER BY", seed)
		}
	}
}

func TestGenerateAnalyzable(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		_, g, err := Generate(Spec{Relations: 6, ExtraEdges: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestGenerateShapes(t *testing.T) {
	for _, shape := range Shapes() {
		for _, n := range []int{3, 5, 8} {
			_, g, err := Generate(Spec{Relations: n, Shape: shape, Seed: 21})
			if err != nil {
				t.Fatalf("%s n=%d: %v", shape, n, err)
			}
			if got, want := len(g.Edges), shapeEdges(shape, n); got != want {
				t.Errorf("%s n=%d: edges = %d, want %d", shape, n, got, want)
			}
			if err := g.Validate(); err != nil {
				t.Errorf("%s n=%d: invalid graph: %v", shape, n, err)
			}
			if _, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true}); err != nil {
				t.Errorf("%s n=%d: analyze: %v", shape, n, err)
			}
		}
	}
	// Extra edges compose with every shape that has room for them.
	_, g, err := Generate(Spec{Relations: 6, Shape: Star, ExtraEdges: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) != 7 {
		t.Errorf("star+2: edges = %d, want 7", len(g.Edges))
	}
}

func shapeEdges(s Shape, n int) int {
	switch s {
	case Cycle:
		return n
	case Clique:
		return n * (n - 1) / 2
	case Grid:
		r, c := GridDims(n)
		return r*(c-1) + c*(r-1)
	default:
		return n - 1
	}
}

func TestGridDims(t *testing.T) {
	cases := []struct{ n, r, c int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {7, 1, 7},
		{8, 2, 4}, {9, 3, 3}, {12, 3, 4}, {16, 4, 4},
	}
	for _, tc := range cases {
		r, c := GridDims(tc.n)
		if r != tc.r || c != tc.c {
			t.Errorf("GridDims(%d) = %d×%d, want %d×%d", tc.n, r, c, tc.r, tc.c)
		}
	}
}

// TestGridShape pins the lattice structure: edge count matches the
// closed form, the graph is connected, every relation's degree is
// between 2 and 4 on a full 2-D grid, and a prime size degenerates to
// the chain.
func TestGridShape(t *testing.T) {
	for _, n := range []int{2, 4, 6, 9, 12, 16} {
		_, g, err := Generate(Spec{Relations: n, Shape: Grid, Seed: 3})
		if err != nil {
			t.Fatalf("grid n=%d: %v", n, err)
		}
		r, c := GridDims(n)
		if want := r*(c-1) + c*(r-1); len(g.Edges) != want {
			t.Errorf("grid n=%d: %d edges, want %d", n, len(g.Edges), want)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("grid n=%d: %v", n, err)
		}
		if r > 1 {
			adj := g.EdgeMasks().Adj
			for i, m := range adj {
				deg := 0
				for x := m; x != 0; x &= x - 1 {
					deg++
				}
				if deg < 2 || deg > 4 {
					t.Errorf("grid n=%d: relation %d has degree %d, want 2..4", n, i, deg)
				}
			}
		}
	}
	// Prime sizes are 1×n grids: identical edge set to the chain.
	_, grid, err := Generate(Spec{Relations: 7, Shape: Grid, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, chain, err := Generate(Spec{Relations: 7, Shape: Chain, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Edges) != len(chain.Edges) {
		t.Fatalf("1×7 grid has %d edges, chain has %d", len(grid.Edges), len(chain.Edges))
	}
	for i := range grid.Edges {
		ga, gb := grid.Edges[i].Rels()
		ca, cb := chain.Edges[i].Rels()
		if ga != ca || gb != cb {
			t.Errorf("edge %d: grid (%d,%d) vs chain (%d,%d)", i, ga, gb, ca, cb)
		}
	}
}

// TestGenerateLargeShapes covers the adaptive planning tier's workload:
// every shape at large relation counts — up to the full 64-relation mask
// width — must generate a valid, connected graph.
func TestGenerateLargeShapes(t *testing.T) {
	for _, shape := range Shapes() {
		for _, n := range []int{16, 20, 24, 30, 64} {
			_, g, err := Generate(Spec{Relations: n, Shape: shape, Seed: 1})
			if err != nil {
				t.Fatalf("%s n=%d: %v", shape, n, err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("%s n=%d: invalid graph: %v", shape, n, err)
			}
			if len(g.Relations) != n {
				t.Fatalf("%s n=%d: got %d relations", shape, n, len(g.Relations))
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, _, err := Generate(Spec{Relations: 0}); err == nil {
		t.Error("0 relations must fail")
	}
	if _, _, err := Generate(Spec{Relations: 64}); err != nil {
		t.Errorf("64 relations must generate (uint64 masks hold them): %v", err)
	}
	if _, _, err := Generate(Spec{Relations: 65}); !errors.Is(err, query.ErrTooManyRelations) {
		t.Errorf("65 relations: want ErrTooManyRelations, got %v", err)
	}
	if _, _, err := Generate(Spec{Relations: 3, ExtraEdges: 99}); err == nil {
		t.Error("too many extra edges must fail")
	}
	if _, _, err := Generate(Spec{Relations: 2, ExtraEdges: -1}); err == nil {
		t.Error("negative extra edges must fail")
	}
	if _, _, err := Generate(Spec{Relations: 2, Shape: Cycle}); err == nil {
		t.Error("2-relation cycle must fail")
	}
	if _, _, err := Generate(Spec{Relations: 4, Shape: Clique, ExtraEdges: 1}); err == nil {
		t.Error("extra edges on a clique must fail")
	}
}

func TestGenerateData(t *testing.T) {
	_, g, err := Generate(Spec{Relations: 3, Seed: 7, ColumnsPerTable: 4})
	if err != nil {
		t.Fatal(err)
	}
	data := GenerateData(g, 5, 9)
	if len(data) != 3 {
		t.Fatalf("tables = %d", len(data))
	}
	for name, rows := range data {
		if len(rows) != 5 {
			t.Errorf("%s: rows = %d", name, len(rows))
		}
		for _, row := range rows {
			if len(row) != 4 {
				t.Errorf("%s: row width = %d", name, len(row))
			}
			for _, v := range row {
				if v < 0 || v >= ValueRange {
					t.Errorf("%s: value %d outside [0,%d)", name, v, ValueRange)
				}
			}
		}
	}
	// Deterministic.
	data2 := GenerateData(g, 5, 9)
	for name := range data {
		for i := range data[name] {
			for c := range data[name][i] {
				if data[name][i][c] != data2[name][i][c] {
					t.Fatal("GenerateData not deterministic")
				}
			}
		}
	}
}

func TestGenerateWithGroupBy(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		_, g, err := Generate(Spec{Relations: 3, Seed: seed, WithGroupBy: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(g.GroupBy) == 0 {
			t.Fatal("missing GROUP BY")
		}
		// ORDER BY must be a prefix of GROUP BY so grouped plans stay
		// executable.
		if len(g.OrderBy) > len(g.GroupBy) {
			t.Fatal("ORDER BY longer than GROUP BY")
		}
		for i := range g.OrderBy {
			if g.OrderBy[i] != g.GroupBy[i] {
				t.Fatal("ORDER BY not a prefix of GROUP BY")
			}
		}
	}
}

func TestGenerateNoOrderBy(t *testing.T) {
	_, g, err := Generate(Spec{Relations: 4, Seed: 5, NoOrderBy: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.OrderBy) != 0 {
		t.Error("NoOrderBy still produced ORDER BY")
	}
}
