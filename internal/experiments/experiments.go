// Package experiments regenerates every table and figure of the paper's
// evaluation:
//
//   - the §6.2 preparation table (NFSM/DFSM sizes, preparation time and
//     precomputed bytes for TPC-R Q8, with and without pruning),
//   - the §7 Q8 plan-generation table (time, #plans, time per plan and
//     memory for Simmen's algorithm vs ours),
//   - Figure 13 (plan generation across join-graph sizes and densities),
//   - Figure 14 (memory consumption for the same workloads).
//
// The harness is deterministic given the seeds and is shared by
// cmd/experiments and the root-level benchmarks.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"orderopt/internal/core"
	"orderopt/internal/nfsm"
	"orderopt/internal/optimizer"
	"orderopt/internal/query"
	"orderopt/internal/querygen"
	"orderopt/internal/tpcr"
)

// PrepRow is one row of the §6.2 preparation table.
type PrepRow struct {
	Pruning   bool
	NFSMSize  int
	DFSMSize  int
	TotalTime time.Duration
	Bytes     int
}

// PrepQ8 reproduces the §6.2 experiment: the preparation step on the
// TPC-R Query 8 input (O_T = ∅, as in the paper's table), with and
// without the §5.7 pruning techniques.
func PrepQ8() ([2]PrepRow, error) {
	var out [2]PrepRow
	for i, pruning := range []bool{false, true} {
		row, err := PrepQ8Variant(pruning)
		if err != nil {
			return out, err
		}
		out[i] = row
	}
	return out, nil
}

// PrepQ8Variant runs one preparation configuration (used by the
// benchmarks so each variant is timed in isolation).
func PrepQ8Variant(pruning bool) (PrepRow, error) {
	_, g, err := tpcr.Query8Graph()
	if err != nil {
		return PrepRow{}, err
	}
	a, err := query.Analyze(g, query.AnalyzeOptions{})
	if err != nil {
		return PrepRow{}, err
	}
	opt := core.Options{TrackEmptyOrdering: false}
	if pruning {
		opt.Pruning = nfsm.AllPruning()
	} else {
		opt.Pruning = nfsm.NoPruning()
	}
	start := time.Now()
	f, err := a.Prepare(opt)
	if err != nil {
		return PrepRow{}, err
	}
	elapsed := time.Since(start)
	st := f.Stats()
	return PrepRow{
		Pruning:   pruning,
		NFSMSize:  st.NFSMStates,
		DFSMSize:  st.DFSMStates,
		TotalTime: elapsed,
		Bytes:     st.PrecomputedBytes,
	}, nil
}

// FormatPrep renders the §6.2 table.
func FormatPrep(rows [2]PrepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %14s %14s\n", "", "w/o pruning", "with pruning")
	fmt.Fprintf(&b, "%-20s %14d %14d\n", "NFSM size (nodes)", rows[0].NFSMSize, rows[1].NFSMSize)
	fmt.Fprintf(&b, "%-20s %14d %14d\n", "DFSM size (nodes)", rows[0].DFSMSize, rows[1].DFSMSize)
	fmt.Fprintf(&b, "%-20s %13.2fms %13.2fms\n", "total time",
		float64(rows[0].TotalTime.Microseconds())/1000,
		float64(rows[1].TotalTime.Microseconds())/1000)
	fmt.Fprintf(&b, "%-20s %13db %13db\n", "precomputed data", rows[0].Bytes, rows[1].Bytes)
	return b.String()
}

// ModeRow is one measurement of a plan-generation run.
type ModeRow struct {
	Mode     string
	Time     time.Duration
	Plans    int64
	PerPlan  time.Duration // time per generated plan operator
	MemBytes int64
}

// Q8 reproduces the §7 TPC-R Query 8 experiment: the identical plan
// generator run with Simmen's algorithm and with ours. Each of runs
// (3 when runs <= 0) prepares and optimizes the query afresh; a mode's
// time is its fastest run, so a change to planning is not lost in one
// run's noise.
func Q8(runs int) ([2]ModeRow, error) {
	if runs <= 0 {
		runs = 3
	}
	var out [2]ModeRow
	modes := []optimizer.Mode{optimizer.ModeSimmen, optimizer.ModeDFSM}
	for i, mode := range modes {
		_, g, err := tpcr.Query8Graph()
		if err != nil {
			return out, err
		}
		a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
		if err != nil {
			return out, err
		}
		for run := 0; run < runs; run++ {
			res, err := optimizer.Optimize(a, optimizer.DefaultConfig(mode))
			if err != nil {
				return out, err
			}
			total := res.PrepTime + res.PlanTime
			if run > 0 && total >= out[i].Time {
				continue
			}
			out[i] = ModeRow{
				Mode:     mode.String(),
				Time:     total,
				Plans:    res.PlansGenerated,
				PerPlan:  time.Duration(ratio(float64(total), float64(res.PlansGenerated))),
				MemBytes: res.OrderMemBytes,
			}
		}
	}
	return out, nil
}

// ratio returns a/b, or 0 where b is 0 (nothing ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// FormatQ8 renders the §7 Q8 table.
func FormatQ8(rows [2]ModeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s %12s\n", "", "Simmen", "Our algorithm")
	fmt.Fprintf(&b, "%-14s %10.2fms %10.2fms\n", "t (ms)",
		ms(rows[0].Time), ms(rows[1].Time))
	fmt.Fprintf(&b, "%-14s %12d %12d\n", "#Plans", rows[0].Plans, rows[1].Plans)
	fmt.Fprintf(&b, "%-14s %10.2fµs %10.2fµs\n", "t/plan (µs)",
		us(rows[0].PerPlan), us(rows[1].PerPlan))
	fmt.Fprintf(&b, "%-14s %10.1fKB %10.1fKB\n", "Memory (KB)",
		kb(rows[0].MemBytes), kb(rows[1].MemBytes))
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func kb(b int64) float64         { return float64(b) / 1024 }

// GraphRow is one row of the Figure 13/14 sweep: one (n, edges)
// configuration averaged over seeds, for both algorithms.
type GraphRow struct {
	N     int
	Extra int // edges = n-1+Extra; the paper labels them n-1, n, n+1
	Seeds int

	SimmenTime  time.Duration
	SimmenPlans float64
	SimmenMemKB float64

	OursTime  time.Duration
	OursPlans float64
	OursMemKB float64
	DFSMKB    float64
}

// FactorTime returns how much faster ours is.
func (r GraphRow) FactorTime() float64 { return ratio(float64(r.SimmenTime), float64(r.OursTime)) }

// FactorPlans returns the search-space reduction factor.
func (r GraphRow) FactorPlans() float64 { return ratio(r.SimmenPlans, r.OursPlans) }

// FactorPerPlan returns the per-plan-operator speedup.
func (r GraphRow) FactorPerPlan() float64 { return ratio(r.SimmenPerPlan(), r.OursPerPlan()) }

// SimmenPerPlan returns µs per generated plan for the baseline.
func (r GraphRow) SimmenPerPlan() float64 { return ratio(us(r.SimmenTime), r.SimmenPlans) }

// OursPerPlan returns µs per generated plan for our algorithm.
func (r GraphRow) OursPerPlan() float64 { return ratio(us(r.OursTime), r.OursPlans) }

// SweepSpec parameterizes the Figure 13/14 sweep.
type SweepSpec struct {
	Sizes  []int // default 5..10
	Extras []int // default 0,1,2 (edges n-1, n, n+1)
	Seeds  int   // queries averaged per configuration (default 5)
	// Enumerator selects the join-pair enumeration for both algorithms
	// (default DPccp; the naive reference is selectable for comparison).
	Enumerator optimizer.Enumerator
}

func (s *SweepSpec) defaults() {
	if len(s.Sizes) == 0 {
		s.Sizes = []int{5, 6, 7, 8, 9, 10}
	}
	if len(s.Extras) == 0 {
		s.Extras = []int{0, 1, 2}
	}
	if s.Seeds == 0 {
		s.Seeds = 5
	}
}

// Sweep runs the Figure 13/14 experiment: random join graphs per the
// paper's §7 methodology, both algorithms inside the identical plan
// generator.
func Sweep(spec SweepSpec) ([]GraphRow, error) {
	spec.defaults()
	modes := []optimizer.Mode{optimizer.ModeSimmen, optimizer.ModeDFSM}
	// Warm up both code paths once so allocator/page-fault cold-start
	// noise does not inflate the first configuration's average.
	for _, mode := range modes {
		if _, err := optimizeSpec(querygen.Spec{Relations: 3, Seed: 999}, optimizer.DefaultConfig(mode)); err != nil {
			return nil, err
		}
	}
	var rows []GraphRow
	for _, extra := range spec.Extras {
		for _, n := range spec.Sizes {
			row := GraphRow{N: n, Extra: extra, Seeds: spec.Seeds}
			for seed := 0; seed < spec.Seeds; seed++ {
				gspec := querygen.Spec{
					Relations:  n,
					ExtraEdges: extra,
					Seed:       int64(seed)*1000 + int64(n)*10 + int64(extra),
				}
				for _, mode := range modes {
					cfg := optimizer.DefaultConfig(mode)
					cfg.Enumerator = spec.Enumerator
					// The sweep measures the exact tier; auto must not
					// silently switch large points to the linearized DP.
					cfg.Strategy = optimizer.StrategyExact
					res, err := optimizeSpec(gspec, cfg)
					if err != nil {
						return nil, err
					}
					total := res.PrepTime + res.PlanTime
					if mode == optimizer.ModeSimmen {
						row.SimmenTime += total
						row.SimmenPlans += float64(res.PlansGenerated)
						row.SimmenMemKB += kb(res.OrderMemBytes)
					} else {
						row.OursTime += total
						row.OursPlans += float64(res.PlansGenerated)
						row.OursMemKB += kb(res.OrderMemBytes)
						row.DFSMKB += kb(res.DFSMBytes)
					}
				}
			}
			div := time.Duration(spec.Seeds)
			row.SimmenTime /= div
			row.OursTime /= div
			row.SimmenPlans /= float64(spec.Seeds)
			row.OursPlans /= float64(spec.Seeds)
			row.SimmenMemKB /= float64(spec.Seeds)
			row.OursMemKB /= float64(spec.Seeds)
			row.DFSMKB /= float64(spec.Seeds)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// optimizeSpec generates the query gspec describes and plans it once
// under cfg.
func optimizeSpec(gspec querygen.Spec, cfg optimizer.Config) (*optimizer.Result, error) {
	_, g, err := querygen.Generate(gspec)
	if err != nil {
		return nil, err
	}
	a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		return nil, err
	}
	return optimizer.Optimize(a, cfg)
}

func edgeLabel(extra int) string {
	switch extra {
	case 0:
		return "n-1"
	case 1:
		return "n"
	default:
		return fmt.Sprintf("n+%d", extra-1)
	}
}

// FormatFigure13 renders the sweep like the paper's Figure 13.
func FormatFigure13(rows []GraphRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%3s %6s | %10s %10s %8s | %10s %10s %8s | %7s %8s %9s\n",
		"n", "#Edges",
		"t(ms)", "#Plans", "t/plan",
		"t(ms)", "#Plans", "t/plan",
		"%t", "%#Plans", "%t/plan")
	fmt.Fprintf(&b, "%11s| %31s | %31s |\n", "", "Simmen", "our algorithm")
	for _, r := range rows {
		fmt.Fprintf(&b, "%3d %6s | %10.2f %10.0f %8.2f | %10.2f %10.0f %8.2f | %7.2f %8.2f %9.2f\n",
			r.N, edgeLabel(r.Extra),
			ms(r.SimmenTime), r.SimmenPlans, r.SimmenPerPlan(),
			ms(r.OursTime), r.OursPlans, r.OursPerPlan(),
			r.FactorTime(), r.FactorPlans(), r.FactorPerPlan())
	}
	return b.String()
}

// FormatFigure14 renders the memory table like the paper's Figure 14.
func FormatFigure14(rows []GraphRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%3s %6s %12s %14s %8s\n", "n", "#Edges", "Simmen(KB)", "Ours(KB)", "DFSM(KB)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%3d %6s %12.0f %14.0f %8.1f\n",
			r.N, edgeLabel(r.Extra), r.SimmenMemKB, r.OursMemKB, r.DFSMKB)
	}
	return b.String()
}
