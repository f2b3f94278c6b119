package optimizer

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"orderopt/internal/querygen"
)

var update = flag.Bool("update", false, "re-record testdata/plan_space.golden")

// planSpaceMaxClique bounds the exact-tier clique sizes per mode.
var planSpaceMaxClique = map[Mode]int{ModeDFSM: 6, ModeSimmen: 5}

// TestPlanSpaceGolden pins the search itself, not just its winner: for
// every querygen shape at 4–8 relations, two seeds each, under both
// order frameworks, one line per case records the plans priced, the
// plans retained, the csg-cmp pairs, the tier that ran and the best
// plan (its cost to the last bit, its tree verbatim). Cliques stop at
// planSpaceMaxClique: a DFSM clique-7 prices 2.9M plans and a Simmen
// clique-6 takes seconds. Clique-18 adds the linearized tier. The last
// two lines are the statement plan_novel serves (servedQ8SQL through
// sqlparse), exact tier, under both frameworks, with their order memory
// (the Simmen column counts every annotation made). A change to how
// candidates are priced, pruned or built that moves any count or any
// chosen plan fails here. Re-record an
// intentional change with -update and review the diff.
func TestPlanSpaceGolden(t *testing.T) {
	t.Parallel()
	type point struct {
		shape querygen.Shape
		n     int
	}
	var points []point
	for _, shape := range querygen.Shapes() {
		for n := 4; n <= 8; n++ {
			if shape != querygen.Clique || n <= planSpaceMaxClique[ModeDFSM] {
				points = append(points, point{shape, n})
			}
		}
	}
	points = append(points, point{querygen.Clique, 18})

	var b strings.Builder
	for _, pt := range points {
		for seed := int64(0); seed < 2; seed++ {
			for _, mode := range []Mode{ModeDFSM, ModeSimmen} {
				if pt.shape == querygen.Clique && pt.n != 18 && pt.n > planSpaceMaxClique[mode] {
					continue
				}
				a := analyzeSpec(t, querygen.Spec{Shape: pt.shape, Relations: pt.n, Seed: seed})
				res, err := Optimize(a, DefaultConfig(mode))
				if err != nil {
					t.Fatalf("%s-%d seed %d %s: %v", pt.shape, pt.n, seed, mode, err)
				}
				fmt.Fprintf(&b, "%s n=%d seed=%d mode=%s ", pt.shape, pt.n, seed, mode)
				writePlanSpace(&b, res)
			}
		}
	}
	for _, mode := range []Mode{ModeDFSM, ModeSimmen} {
		cfg := DefaultConfig(mode)
		cfg.Strategy = StrategyExact
		res, err := Optimize(servedQ8(t, servedQ8SQL), cfg)
		if err != nil {
			t.Fatalf("served Q8 %s: %v", mode, err)
		}
		fmt.Fprintf(&b, "served-q8 mode=%s mem=%d ", mode, res.OrderMemBytes)
		writePlanSpace(&b, res)
	}

	path := filepath.Join("testdata", "plan_space.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("plan space differs from %s (re-record with -update if intended)\n--- want\n%s--- got\n%s", path, want, got)
	}
}

// writePlanSpace ends a plan-space golden line: the counts, the tier and
// the best plan.
func writePlanSpace(b *strings.Builder, res *Result) {
	fmt.Fprintf(b, "generated=%d retained=%d pairs=%d strategy=%s cost=%v plan=%q\n",
		res.PlansGenerated, res.PlansRetained, res.CsgCmpPairs, res.Strategy, res.Best.Cost, res.Best.String())
}
