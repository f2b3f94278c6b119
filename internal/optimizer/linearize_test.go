package optimizer

import (
	"errors"
	"fmt"
	"math/bits"
	"testing"

	"orderopt/internal/catalog"
	"orderopt/internal/plan"
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

// validatePlan walks a plan tree bottom-up and returns the relation mask
// it covers, failing the test on any structural violation: a relation
// scanned twice, a join without a crossing edge, or overlapping inputs.
func validatePlan(t *testing.T, g *query.Graph, n *plan.Node) uint64 {
	t.Helper()
	switch n.Op {
	case plan.TableScan, plan.IndexScan:
		if n.Rel < 0 || n.Rel >= len(g.Relations) {
			t.Fatalf("scan of relation %d out of range", n.Rel)
		}
		return 1 << uint(n.Rel)
	case plan.Sort, plan.GroupSorted, plan.GroupHash:
		return validatePlan(t, g, n.Left)
	case plan.MergeJoin, plan.HashJoin, plan.NestedLoopJoin:
		lm := validatePlan(t, g, n.Left)
		rm := validatePlan(t, g, n.Right)
		if lm&rm != 0 {
			t.Fatalf("%s inputs overlap: %b & %b", n.Op, lm, rm)
		}
		if len(g.EdgesBetween(lm, rm)) == 0 {
			t.Fatalf("%s is a cross product: no edge between %b and %b", n.Op, lm, rm)
		}
		em := g.EdgeMasks().Edge[n.Edge]
		if em&lm == 0 || em&rm == 0 {
			t.Fatalf("%s labeled with edge %d that does not cross %b|%b", n.Op, n.Edge, lm, rm)
		}
		return lm | rm
	default:
		t.Fatalf("unexpected operator %s", n.Op)
		return 0
	}
}

// TestLinearizedCrossCheck runs the heuristic tier against the exact DP
// on every querygen shape (n ≤ 12, where exact is affordable): the
// linearized plan must be structurally valid, satisfy the query's order
// requirements via the DFSM, never beat the exact optimum, and stay
// within a pinned cost ratio of it so quality regressions fail loudly.
// One seed per point by default, three under -exhaustive (the pinned
// ratios were measured over all three).
func TestLinearizedCrossCheck(t *testing.T) {
	points := []struct {
		shape    querygen.Shape
		n        int
		maxRatio float64 // pinned: measured max over the seeds + headroom
	}{
		// Measured worst ratios over the seeds: chain 1.047, star 1.005,
		// cycle 1.001, grid 1.061, clique 1.163.
		{querygen.Chain, 12, 1.15},
		{querygen.Star, 10, 1.10},
		{querygen.Cycle, 12, 1.10},
		{querygen.Grid, 12, 1.15},
		{querygen.Clique, 8, 1.25},
	}
	for _, pt := range points {
		for _, seed := range crossCheckSeeds(3) {
			name := fmt.Sprintf("%s-%d/seed%d", pt.shape, pt.n, seed)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				spec := querygen.Spec{Relations: pt.n, Shape: pt.shape, Seed: seed}

				exactCfg := DefaultConfig(ModeDFSM)
				exactCfg.Strategy = StrategyExact
				exact, err := Optimize(analyzeSpec(t, spec), exactCfg)
				if err != nil {
					t.Fatal(err)
				}

				linCfg := DefaultConfig(ModeDFSM)
				linCfg.Strategy = StrategyLinearized
				a := analyzeSpec(t, spec)
				prep, err := Prepare(a, linCfg)
				if err != nil {
					t.Fatal(err)
				}
				lin, err := prep.Run()
				if err != nil {
					t.Fatal(err)
				}
				if lin.Strategy != StrategyLinearized || exact.Strategy != StrategyExact {
					t.Fatalf("strategies not reported: exact=%s lin=%s", exact.Strategy, lin.Strategy)
				}

				full := uint64(1)<<uint(pt.n) - 1
				if got := validatePlan(t, a.Graph, lin.Best); got != full {
					t.Fatalf("linearized plan covers %b, want %b", got, full)
				}
				if a.OrderByOrd != 0 && !prep.Framework().Contains(lin.Best.State, a.OrderByOrd) {
					t.Errorf("linearized plan does not satisfy the ORDER BY:\n%s", lin.Best)
				}

				ratio := lin.Best.Cost / exact.Best.Cost
				if ratio < 1-1e-9 {
					t.Errorf("linearized cost %.1f beats the exact optimum %.1f — exact DP is broken",
						lin.Best.Cost, exact.Best.Cost)
				}
				if ratio > pt.maxRatio {
					t.Errorf("cost ratio %.4f exceeds pinned %.2f (lin %.1f vs exact %.1f)",
						ratio, pt.maxRatio, lin.Best.Cost, exact.Best.Cost)
				}
				t.Logf("ratio %.4f (lin %.1f, exact %.1f, lin plans %d, exact plans %d)",
					ratio, lin.Best.Cost, exact.Best.Cost, lin.PlansGenerated, exact.PlansGenerated)
			})
		}
	}
}

// TestLinearizedLargeShapes: the tentpole claim — join graphs far beyond
// the exact-DP horizon plan successfully (and fast) under auto.
func TestLinearizedLargeShapes(t *testing.T) {
	points := []struct {
		shape querygen.Shape
		n     int
	}{
		{querygen.Chain, 30},
		{querygen.Star, 30},
		{querygen.Cycle, 24},
		{querygen.Grid, 25},
		{querygen.Clique, 20},
		{querygen.Chain, 64},
	}
	for _, pt := range points {
		t.Run(fmt.Sprintf("%s-%d", pt.shape, pt.n), func(t *testing.T) {
			a := analyzeSpec(t, querygen.Spec{Relations: pt.n, Shape: pt.shape, Seed: 1})
			prep, err := Prepare(a, DefaultConfig(ModeDFSM)) // auto
			if err != nil {
				t.Fatal(err)
			}
			if prep.Strategy() != StrategyLinearized {
				t.Fatalf("auto picked %s for %s-%d", prep.Strategy(), pt.shape, pt.n)
			}
			res, err := prep.Run()
			if err != nil {
				t.Fatal(err)
			}
			full := uint64(1)<<uint(pt.n) - 1
			if pt.n == 64 {
				full = ^uint64(0)
			}
			if got := validatePlan(t, a.Graph, res.Best); got != full {
				t.Fatalf("plan covers %b, want %b", got, full)
			}
			if a.OrderByOrd != 0 && !prep.Framework().Contains(res.Best.State, a.OrderByOrd) {
				t.Errorf("plan does not satisfy the ORDER BY")
			}
			t.Logf("planned in %v (%d plans, %d intervals joined)", res.PlanTime, res.PlansGenerated, res.CsgCmpPairs)
		})
	}
}

// TestAutoStrategy pins the auto decision boundary: sparse graphs stay
// exact, dense or very large graphs switch to the linearized tier.
func TestAutoStrategy(t *testing.T) {
	points := []struct {
		shape querygen.Shape
		n     int
		want  Strategy
	}{
		{querygen.Chain, 8, StrategyExact},
		{querygen.Chain, 18, StrategyExact},      // sparse: pair probe stays under budget
		{querygen.Chain, 19, StrategyLinearized}, // relation cap
		{querygen.Clique, 8, StrategyExact},
		{querygen.Clique, 14, StrategyLinearized}, // pair budget blown
		{querygen.Star, 16, StrategyLinearized},
	}
	for _, pt := range points {
		a := analyzeSpec(t, querygen.Spec{Relations: pt.n, Shape: pt.shape, Seed: 0})
		prep, err := Prepare(a, DefaultConfig(ModeDFSM))
		if err != nil {
			t.Fatal(err)
		}
		if prep.Strategy() != pt.want {
			t.Errorf("%s-%d: auto resolved to %s, want %s", pt.shape, pt.n, prep.Strategy(), pt.want)
		}
	}

	// Explicit strategies are never overridden, and unknown ones error.
	a := analyzeSpec(t, querygen.Spec{Relations: 5, Seed: 0})
	cfg := DefaultConfig(ModeDFSM)
	cfg.Strategy = StrategyLinearized
	prep, err := Prepare(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Strategy() != StrategyLinearized {
		t.Errorf("explicit linearized resolved to %s", prep.Strategy())
	}
	cfg.Strategy = Strategy(99)
	if _, err := Prepare(analyzeSpec(t, querygen.Spec{Relations: 5, Seed: 0}), cfg); err == nil {
		t.Error("unknown strategy must error")
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
		adj := g.AdjacencyMasks()
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

// TestPrepareTooManyRelations: the uint64-mask limit surfaces as the
// typed error, not as truncation or a panic.
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
	// Analyze rejects it via Validate...
	if _, err := query.Analyze(g, query.AnalyzeOptions{}); !errors.Is(err, query.ErrTooManyRelations) {
		t.Errorf("Analyze: want ErrTooManyRelations, got %v", err)
	}
	// ...and Prepare guards the path that bypasses Analyze.
	if _, err := Prepare(&query.Analysis{Graph: g}, DefaultConfig(ModeDFSM)); !errors.Is(err, query.ErrTooManyRelations) {
		t.Errorf("Prepare: want ErrTooManyRelations, got %v", err)
	}
}

// TestLinearizationShape sanity-checks the GOO sequence itself: a
// permutation of the relations on which the interval DP always finds a
// full plan (the GOO merge tree's subtrees are contiguous intervals by
// construction, so at minimum the greedy plan is representable).
func TestLinearizationShape(t *testing.T) {
	for _, shape := range querygen.Shapes() {
		a := analyzeSpec(t, querygen.Spec{Relations: 12, Shape: shape, Seed: 3})
		cfg := DefaultConfig(ModeDFSM)
		cfg.Strategy = StrategyLinearized
		prep, err := Prepare(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		seq := prep.Linearization()
		if len(seq) != 12 {
			t.Fatalf("%s: sequence has %d relations", shape, len(seq))
		}
		var seen uint64
		for _, r := range seq {
			bit := uint64(1) << uint(r)
			if seen&bit != 0 {
				t.Fatalf("%s: relation %d appears twice", shape, r)
			}
			seen |= bit
		}
		if bits.OnesCount64(seen) != 12 {
			t.Fatalf("%s: sequence covers %d relations", shape, bits.OnesCount64(seen))
		}
		if _, err := prep.Run(); err != nil {
			t.Fatalf("%s: linearized DP found no plan: %v", shape, err)
		}
	}
}
