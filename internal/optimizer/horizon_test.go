package optimizer

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"orderopt/internal/catalog"
	"orderopt/internal/query"
	"orderopt/internal/querygen"
)

func analyzeSpec(t *testing.T, spec querygen.Spec) *query.Analysis {
	t.Helper()
	_, g, err := querygen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestHorizon pins the exact planning horizon at its edges: a chain-18
// still plans exactly, a chain-19 is refused by the relation cap, and a
// clique-12 (261,625 csg-cmp pairs) by the pair budget. Each refusal is
// ErrPastHorizon and names the bound it broke. The refused statements
// are also prepared from a bare graph, with no order builder to build a
// framework from: the refusal must come before the framework is built.
func TestHorizon(t *testing.T) {
	chain18 := analyzeSpec(t, querygen.Spec{Relations: HorizonRelations, Seed: 0})
	res, err := Optimize(chain18, DefaultConfig(ModeDFSM))
	if err != nil {
		t.Fatalf("chain-%d: %v", HorizonRelations, err)
	}
	// A chain of n relations has (n³-n)/6 csg-cmp pairs, every one joined.
	if want := int64(HorizonRelations*HorizonRelations*HorizonRelations-HorizonRelations) / 6; res.CsgCmpPairs != want {
		t.Errorf("chain-%d joined %d csg-cmp pairs, want %d", HorizonRelations, res.CsgCmpPairs, want)
	}

	for _, c := range []struct {
		spec querygen.Spec
		want string
	}{
		{querygen.Spec{Relations: HorizonRelations + 1, Seed: 0}, fmt.Sprintf("%d relations, at most %d", HorizonRelations+1, HorizonRelations)},
		{querygen.Spec{Shape: querygen.Clique, Relations: 12, Seed: 0}, fmt.Sprintf("more than %d csg-cmp pairs", HorizonPairs)},
	} {
		name := fmt.Sprintf("%s-%d", c.spec.Shape, c.spec.Relations)
		for _, mode := range []Mode{ModeDFSM, ModeSimmen} {
			_, err := Prepare(analyzeSpec(t, c.spec), DefaultConfig(mode))
			if !errors.Is(err, ErrPastHorizon) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s %s: got %v, want ErrPastHorizon naming %q", name, mode, err, c.want)
			}
		}
		_, g, err := querygen.Generate(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Prepare(&query.Analysis{Graph: g}, DefaultConfig(ModeDFSM)); !errors.Is(err, ErrPastHorizon) {
			t.Errorf("%s from a bare graph: got %v, want ErrPastHorizon", name, err)
		}
	}
}

// TestCountPairsUpTo cross-checks the bounded probe against the real
// enumeration on every shape, and checks that the cap actually caps.
func TestCountPairsUpTo(t *testing.T) {
	for _, shape := range querygen.Shapes() {
		_, g, err := querygen.Generate(querygen.Spec{Relations: 9, Shape: shape, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		adj := g.EdgeMasks().Adj
		var want int64
		EnumeratePairs(EnumDPccp, 9, adj, func(_, _ uint64) { want++ })
		got, exceeded := countPairsUpTo(9, adj, want+1)
		if exceeded || got != want {
			t.Errorf("%s: probe counted %d (exceeded=%v), enumeration %d", shape, got, exceeded, want)
		}
		if want > 1 {
			// The probe stops at the first pair past the limit.
			got, exceeded = countPairsUpTo(9, adj, want-1)
			if !exceeded || got != want {
				t.Errorf("%s: capped probe returned %d exceeded=%v (limit %d)", shape, got, exceeded, want-1)
			}
		}
	}
}

// TestPrepareTooManyRelations: past the uint64-mask limit, Analyze
// refuses with the typed error, and Prepare — the path that bypasses
// Analyze — refuses at the horizon, not by truncation or a panic.
func TestPrepareTooManyRelations(t *testing.T) {
	c := catalog.New()
	c.MustAdd(&catalog.Table{
		Name:    "t",
		Columns: []catalog.Column{{Name: "c0", Type: catalog.Int, Distinct: 10}},
		Rows:    100,
	})
	tab, _ := c.Table("t")
	g := &query.Graph{}
	for i := 0; i < 65; i++ {
		g.AddRelation(fmt.Sprintf("t%d", i), tab)
	}
	if _, err := query.Analyze(g, query.AnalyzeOptions{}); !errors.Is(err, query.ErrTooManyRelations) {
		t.Errorf("Analyze: want ErrTooManyRelations, got %v", err)
	}
	if _, err := Prepare(&query.Analysis{Graph: g}, DefaultConfig(ModeDFSM)); !errors.Is(err, ErrPastHorizon) {
		t.Errorf("Prepare: want ErrPastHorizon, got %v", err)
	}
}
