// The large-query experiment: the adaptive tier's exact-vs-linearized
// comparison. On sizes where the exhaustive DP is affordable both tiers
// run and the cost ratio quantifies what the heuristic gives up; beyond
// the exact horizon only the linearized tier runs — the whole point is
// that those queries plan at all (and in microseconds-to-milliseconds).
package experiments

import (
	"fmt"
	"strings"
	"time"

	"orderopt/internal/optimizer"
	"orderopt/internal/query"
	"orderopt/internal/querygen"
)

// LargeSpec parameterizes the large-query table.
type LargeSpec struct {
	Shapes []querygen.Shape // default: all shapes
	Sizes  []int            // default 10, 16, 20, 24, 30
	Seeds  int              // queries averaged per configuration (default 3)
	// CompareMax is the largest relation count on which the exact tier
	// also runs for the cost-ratio column (default 10; exact cliques
	// beyond that take seconds to minutes).
	CompareMax int
	Mode       optimizer.Mode
}

func (s *LargeSpec) defaults() {
	if len(s.Shapes) == 0 {
		s.Shapes = querygen.Shapes()
	}
	if len(s.Sizes) == 0 {
		s.Sizes = []int{10, 16, 20, 24, 30}
	}
	if s.Seeds == 0 {
		s.Seeds = 3
	}
	if s.CompareMax == 0 {
		s.CompareMax = 10
	}
}

// LargeRow is one (shape, n) configuration averaged over seeds. Exact
// columns are zero when the exact tier did not run (n > CompareMax).
type LargeRow struct {
	Shape string
	N     int
	Seeds int

	// Prep is the linearized tier's one-time preparation (analysis,
	// DFSM, strategy probe, linearization), amortized by the planner's
	// prepared-statement cache.
	Prep time.Duration
	// LinTime is the prepared-path linearized DP time (a re-run);
	// LinCold the statement's first run, on scratch as earlier
	// statements left it.
	LinCold  time.Duration
	LinTime  time.Duration
	LinPlans float64

	ExactTime  time.Duration
	ExactPlans float64
	// CostRatio averages linearized cost / exact cost (≥ 1; the exact
	// tier is optimal for the cost model).
	CostRatio float64
}

// Large runs the exact-vs-linearized comparison.
func Large(spec LargeSpec) ([]LargeRow, error) {
	spec.defaults()
	var rows []LargeRow
	for _, shape := range spec.Shapes {
		for _, n := range spec.Sizes {
			if shape == querygen.Cycle && n < 3 {
				continue
			}
			row := LargeRow{Shape: shape.String(), N: n, Seeds: spec.Seeds}
			for seed := 0; seed < spec.Seeds; seed++ {
				gspec := querygen.Spec{
					Relations: n,
					Shape:     shape,
					Seed:      int64(seed)*1000 + int64(n)*10 + int64(shape),
				}
				linCfg := optimizer.DefaultConfig(spec.Mode)
				linCfg.Strategy = optimizer.StrategyLinearized
				prep, err := prepareSpec(gspec, linCfg)
				if err != nil {
					return nil, err
				}
				cold, err := prep.Run()
				if err != nil {
					return nil, err
				}
				warm, err := prep.Run()
				if err != nil {
					return nil, err
				}
				row.Prep += prep.PrepTime()
				row.LinCold += cold.PlanTime
				row.LinTime += warm.PlanTime
				row.LinPlans += float64(warm.PlansGenerated)

				if n > spec.CompareMax {
					continue
				}
				exactCfg := optimizer.DefaultConfig(spec.Mode)
				exactCfg.Strategy = optimizer.StrategyExact
				eprep, err := prepareSpec(gspec, exactCfg)
				if err != nil {
					return nil, err
				}
				exact, err := eprep.Run()
				if err != nil {
					return nil, err
				}
				row.ExactTime += exact.PlanTime
				row.ExactPlans += float64(exact.PlansGenerated)
				row.CostRatio += warm.Best.Cost / exact.Best.Cost
			}
			div := time.Duration(spec.Seeds)
			fdiv := float64(spec.Seeds)
			row.Prep /= div
			row.LinCold /= div
			row.LinTime /= div
			row.LinPlans /= fdiv
			if row.ExactTime > 0 {
				row.ExactTime /= div
				row.ExactPlans /= fdiv
				row.CostRatio /= fdiv
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func prepareSpec(gspec querygen.Spec, cfg optimizer.Config) (*optimizer.Prepared, error) {
	_, g, err := querygen.Generate(gspec)
	if err != nil {
		return nil, err
	}
	a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		return nil, err
	}
	return optimizer.Prepare(a, cfg)
}

// FormatLarge renders the large-query table.
func FormatLarge(rows []LargeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %3s | %9s %9s %10s | %10s %10s %9s | %7s %7s\n",
		"shape", "n", "prep(ms)", "cold(µs)", "lin(µs)", "exact(µs)", "#plans", "lin#plans", "%t", "ratio")
	for _, r := range rows {
		exact, plans, ratio, factor := "-", "-", "-", "-"
		if r.ExactTime > 0 {
			exact = fmt.Sprintf("%.0f", us(r.ExactTime))
			plans = fmt.Sprintf("%.0f", r.ExactPlans)
			ratio = fmt.Sprintf("%.3f", r.CostRatio)
			factor = fmt.Sprintf("%.1f", float64(r.ExactTime)/float64(r.LinTime))
		}
		fmt.Fprintf(&b, "%-7s %3d | %9.2f %9.0f %10.0f | %10s %10s %9.0f | %7s %7s\n",
			r.Shape, r.N, ms(r.Prep), us(r.LinCold), us(r.LinTime), exact, plans, r.LinPlans, factor, ratio)
	}
	return b.String()
}
