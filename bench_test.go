// Benchmarks regenerating the paper's evaluation, one per table/figure:
//
//	BenchmarkContains / BenchmarkInfer / BenchmarkSubsetOf / BenchmarkProduce
//	    — the O(1) claims for the hot ADT operations (§5.6), with the
//	      Ω(n) Simmen baseline alongside for contrast.
//	BenchmarkPrepQ8
//	    — the §6.2 preparation table (with/without pruning).
//	BenchmarkPlanGenQ8
//	    — the §7 TPC-R Q8 table (both algorithms inside the same plan
//	      generator; #plans and memory reported as metrics).
//	BenchmarkFigure13 / BenchmarkFigure14
//	    — the join-graph sweep (time/#plans and memory; sizes kept
//	      moderate here, cmd/experiments runs the full sweep).
//	BenchmarkAblation*
//	    — design-choice ablations called out in DESIGN.md.
//	BenchmarkPlannerThroughput
//	    — the planner layer on Q8: cold pipeline vs prepared statements
//	      vs stored-plan hits, serial and parallel.
//	BenchmarkLargeQuery
//	    — the adaptive tier: exact vs linearized DP around the exact
//	      horizon (with cost-ratio metrics), linearized-only beyond it.
//	BenchmarkExecRuntime
//	    — end-to-end execution: the same TPC-R query planned with the
//	      DFSM framework, the Simmen baseline and order-obliviously,
//	      each executed by the streaming executor (runtime + rows-sorted
//	      metrics).
//	BenchmarkExecTopK
//	    — LIMIT-k execution: the order-flow query with k ∈ {1, 10, 100},
//	      the limit-aware costing's order-satisfying early-out pipeline
//	      vs the order-oblivious hash + full-sort plan.
//
// Nothing here writes an artifact: docs/benchmarks.md says how to run a
// family, make bench-smoke runs each once, and the gated served
// benchmark is benchmark/ (make bench).
package orderopt_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"testing"

	"orderopt"
	"orderopt/internal/conformance"
	"orderopt/internal/exec"
	"orderopt/internal/experiments"
	"orderopt/internal/optimizer"
	"orderopt/internal/order"
	"orderopt/internal/plan"
	"orderopt/internal/planner"
	"orderopt/internal/query"
	"orderopt/internal/querygen"
	"orderopt/internal/simmen"
	"orderopt/internal/tpcr"
)

// q8Framework prepares the framework and baseline on the Q8 input.
func q8Framework(b *testing.B) (*query.Analysis, *orderopt.Framework) {
	b.Helper()
	_, g, err := tpcr.Query8Graph()
	if err != nil {
		b.Fatal(err)
	}
	a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		b.Fatal(err)
	}
	fw, err := a.Prepare(orderopt.PlannerOptions())
	if err != nil {
		b.Fatal(err)
	}
	return a, fw
}

// BenchmarkContains measures the O(1) membership test on the Q8 machine.
func BenchmarkContains(b *testing.B) {
	a, fw := q8Framework(b)
	ord := a.EdgeOrders[0][0][0]
	s := fw.Infer(fw.Produce(ord), a.EdgeFD[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !fw.Contains(s, ord) {
			b.Fatal("unexpected contains result")
		}
	}
}

// BenchmarkInfer measures the O(1) inferNewLogicalOrderings transition.
func BenchmarkInfer(b *testing.B) {
	a, fw := q8Framework(b)
	s := fw.Produce(a.EdgeOrders[0][0][0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = int32(fw.Infer(s, a.EdgeFD[i%len(a.EdgeFD)]))
	}
}

// BenchmarkSubsetOf measures the dominance test the DP runs on every
// plan it offers to a non-empty plan list — its most frequent order
// operation. The pairs walk a chain of states one edge FD apart.
func BenchmarkSubsetOf(b *testing.B) {
	a, fw := q8Framework(b)
	states := []orderopt.State{fw.Produce(a.EdgeOrders[0][0][0])}
	for _, h := range a.EdgeFD {
		states = append(states, fw.Infer(states[len(states)-1], h))
	}
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fw.SubsetOf(states[i%len(states)], states[(i+1)%len(states)]) {
			hits++
		}
	}
	sink = int32(hits)
}

// BenchmarkProduce measures the O(1) ADT constructor.
func BenchmarkProduce(b *testing.B) {
	a, fw := q8Framework(b)
	ord := a.EdgeOrders[0][0][0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = int32(fw.Produce(ord))
	}
}

var sink int32

// BenchmarkSimmenContains measures the baseline's reduce-based contains
// (Ω(n) in the number of dependencies; cache disabled to expose it).
func BenchmarkSimmenContains(b *testing.B) {
	for _, cached := range []bool{false, true} {
		b.Run(fmt.Sprintf("cache=%v", cached), func(b *testing.B) {
			_, g, err := tpcr.Query8Graph()
			if err != nil {
				b.Fatal(err)
			}
			a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
			if err != nil {
				b.Fatal(err)
			}
			sim := simmen.New(a.Builder.Interner(), a.Builder.Registry(), cached)
			ord := a.EdgeOrders[0][0][0]
			ann := sim.Produce(ord)
			for _, set := range a.Sets {
				ann = sim.Infer(ann, set)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !sim.Contains(ann, ord) {
					b.Fatal("unexpected contains result")
				}
			}
		})
	}
}

// BenchmarkSimmenInfer measures the baseline's FD-set accumulation.
func BenchmarkSimmenInfer(b *testing.B) {
	_, g, err := tpcr.Query8Graph()
	if err != nil {
		b.Fatal(err)
	}
	a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		b.Fatal(err)
	}
	sim := simmen.New(a.Builder.Interner(), a.Builder.Registry(), true)
	ann := sim.Produce(a.EdgeOrders[0][0][0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Infer(ann, a.Sets[i%len(a.Sets)])
	}
}

// BenchmarkPrepQ8 regenerates the §6.2 preparation table; each variant
// is timed in isolation.
func BenchmarkPrepQ8(b *testing.B) {
	for _, pruning := range []bool{false, true} {
		b.Run(fmt.Sprintf("pruning=%v", pruning), func(b *testing.B) {
			var last experiments.PrepRow
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				row, err := experiments.PrepQ8Variant(pruning)
				if err != nil {
					b.Fatal(err)
				}
				last = row
			}
			b.ReportMetric(float64(last.NFSMSize), "nfsm-nodes")
			b.ReportMetric(float64(last.DFSMSize), "dfsm-nodes")
			b.ReportMetric(float64(last.Bytes), "precomputed-bytes")
		})
	}
}

// BenchmarkPlanGenQ8 regenerates the §7 Q8 table. Each order framework
// runs under both join enumerators: "dpccp" is the optimized
// configuration (csg-cmp-pair enumeration + dense DP table), "naive" the
// seed's reference path (DPsub splits + map table) in the same binary.
func BenchmarkPlanGenQ8(b *testing.B) {
	for _, mode := range []optimizer.Mode{optimizer.ModeSimmen, optimizer.ModeDFSM} {
		for _, enum := range []optimizer.Enumerator{optimizer.EnumNaive, optimizer.EnumDPccp} {
			b.Run(fmt.Sprintf("%s/%s", mode, enum), func(b *testing.B) {
				b.ReportAllocs()
				var plans, mem, pairs int64
				for i := 0; i < b.N; i++ {
					_, g, err := tpcr.Query8Graph()
					if err != nil {
						b.Fatal(err)
					}
					a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
					if err != nil {
						b.Fatal(err)
					}
					cfg := optimizer.DefaultConfig(mode)
					cfg.Enumerator = enum
					cfg.Strategy = optimizer.StrategyExact // the enumerators only run in the exact tier
					res, err := optimizer.Optimize(a, cfg)
					if err != nil {
						b.Fatal(err)
					}
					plans = res.PlansGenerated
					mem = res.OrderMemBytes
					pairs = res.CsgCmpPairs
				}
				b.ReportMetric(float64(plans), "plans")
				b.ReportMetric(float64(mem)/1024, "order-mem-KB")
				b.ReportMetric(float64(pairs), "csg-cmp-pairs/op")
			})
		}
	}
}

// BenchmarkEnumerator isolates the enumeration win per join-graph shape:
// the identical DFSM plan generator under the reference (naive) and
// DPccp configurations. The chain-12 point is the sweep's largest chain;
// cliques stop at 6 relations (the plan space, not the enumeration,
// dominates beyond that). csg-cmp-pairs/op counts the pairs the
// enumerator produced — identical across enumerators by construction,
// so ns/op and allocs/op isolate how much work finding them costs.
func BenchmarkEnumerator(b *testing.B) {
	shapes := []struct {
		shape querygen.Shape
		n     int
	}{
		{querygen.Chain, 12},
		{querygen.Star, 10},
		{querygen.Cycle, 10},
		{querygen.Clique, 6},
		{querygen.Grid, 9},
	}
	for _, enum := range []optimizer.Enumerator{optimizer.EnumNaive, optimizer.EnumDPccp} {
		for _, sh := range shapes {
			b.Run(fmt.Sprintf("%s/%s-%d", enum, sh.shape, sh.n), func(b *testing.B) {
				b.ReportAllocs()
				var pairs int64
				for i := 0; i < b.N; i++ {
					_, g, err := querygen.Generate(querygen.Spec{
						Relations: sh.n, Shape: sh.shape, Seed: 0,
					})
					if err != nil {
						b.Fatal(err)
					}
					a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
					if err != nil {
						b.Fatal(err)
					}
					cfg := optimizer.DefaultConfig(optimizer.ModeDFSM)
					cfg.Enumerator = enum
					cfg.Strategy = optimizer.StrategyExact // the enumerators only run in the exact tier
					res, err := optimizer.Optimize(a, cfg)
					if err != nil {
						b.Fatal(err)
					}
					pairs = res.CsgCmpPairs
				}
				b.ReportMetric(float64(pairs), "csg-cmp-pairs/op")
			})
		}
	}
}

// BenchmarkFigure13 regenerates the plan-generation sweep (moderate
// sizes; cmd/experiments runs n up to 10).
func BenchmarkFigure13(b *testing.B) {
	for _, mode := range []optimizer.Mode{optimizer.ModeSimmen, optimizer.ModeDFSM} {
		for _, n := range []int{5, 7, 9} {
			for _, extra := range []int{0, 2} {
				b.Run(fmt.Sprintf("%s/n=%d/edges=%s", mode, n, edgeName(extra)), func(b *testing.B) {
					var plans int64
					for i := 0; i < b.N; i++ {
						_, g, err := querygen.Generate(querygen.Spec{
							Relations: n, ExtraEdges: extra, Seed: 7,
						})
						if err != nil {
							b.Fatal(err)
						}
						a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
						if err != nil {
							b.Fatal(err)
						}
						res, err := optimizer.Optimize(a, optimizer.DefaultConfig(mode))
						if err != nil {
							b.Fatal(err)
						}
						plans = res.PlansGenerated
					}
					b.ReportMetric(float64(plans), "plans")
				})
			}
		}
	}
}

// BenchmarkEnumerateOnly measures raw pair enumeration over prebuilt
// adjacency masks, with plan generation out of the picture entirely:
// DPccp emits exactly the valid pairs while the naive reference filters
// all subset splits through connectivity checks, so this is where the
// csg-cmp-pair algorithm's advantage is starkest (dense shapes, n = 12).
func BenchmarkEnumerateOnly(b *testing.B) {
	for _, enum := range []optimizer.Enumerator{optimizer.EnumNaive, optimizer.EnumDPccp} {
		for _, shape := range querygen.Shapes() {
			const n = 12
			_, g, err := querygen.Generate(querygen.Spec{Relations: n, Shape: shape, Seed: 0})
			if err != nil {
				b.Fatal(err)
			}
			adj := g.EdgeMasks().Adj
			b.Run(fmt.Sprintf("%s/%s-%d", enum, shape, n), func(b *testing.B) {
				b.ReportAllocs()
				var pairs int64
				for i := 0; i < b.N; i++ {
					pairs = 0
					optimizer.EnumeratePairs(enum, n, adj, func(_, _ uint64) { pairs++ })
				}
				b.ReportMetric(float64(pairs), "csg-cmp-pairs/op")
			})
		}
	}
}

func edgeName(extra int) string {
	switch extra {
	case 0:
		return "n-1"
	case 1:
		return "n"
	default:
		return fmt.Sprintf("n+%d", extra-1)
	}
}

// BenchmarkFigure14 regenerates the memory-consumption comparison.
func BenchmarkFigure14(b *testing.B) {
	for _, mode := range []optimizer.Mode{optimizer.ModeSimmen, optimizer.ModeDFSM} {
		for _, n := range []int{6, 9} {
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				var mem, dfsm int64
				for i := 0; i < b.N; i++ {
					_, g, err := querygen.Generate(querygen.Spec{Relations: n, ExtraEdges: 1, Seed: 3})
					if err != nil {
						b.Fatal(err)
					}
					a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
					if err != nil {
						b.Fatal(err)
					}
					res, err := optimizer.Optimize(a, optimizer.DefaultConfig(mode))
					if err != nil {
						b.Fatal(err)
					}
					mem = res.OrderMemBytes
					dfsm = res.DFSMBytes
				}
				b.ReportMetric(float64(mem)/1024, "order-mem-KB")
				if mode == optimizer.ModeDFSM {
					b.ReportMetric(float64(dfsm)/1024, "dfsm-KB")
				}
			})
		}
	}
}

// BenchmarkAblationPruning isolates each §5.7 reduction technique: the
// Q8 preparation with exactly one technique disabled.
func BenchmarkAblationPruning(b *testing.B) {
	type variant struct {
		name string
		mod  func(*orderopt.PruningOptions)
	}
	variants := []variant{
		{"all", func(*orderopt.PruningOptions) {}},
		{"none", func(o *orderopt.PruningOptions) { *o = orderopt.NoPruning() }},
		{"no-fd-pruning", func(o *orderopt.PruningOptions) { o.PruneFDs = false }},
		{"no-merge", func(o *orderopt.PruningOptions) { o.MergeArtificial = false }},
		{"no-node-pruning", func(o *orderopt.PruningOptions) { o.PruneArtificial = false }},
		{"no-length-cutoff", func(o *orderopt.PruningOptions) { o.LengthCutoff = false }},
		{"no-prefix-viability", func(o *orderopt.PruningOptions) { o.PrefixViability = false }},
		{"no-inert-drop", func(o *orderopt.PruningOptions) { o.DropInertSymbols = false }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				_, g, err := tpcr.Query8Graph()
				if err != nil {
					b.Fatal(err)
				}
				a, err := query.Analyze(g, query.AnalyzeOptions{})
				if err != nil {
					b.Fatal(err)
				}
				opt := orderopt.DefaultOptions()
				v.mod(&opt.Pruning)
				fw, err := a.Prepare(opt)
				if err != nil {
					b.Fatal(err)
				}
				states = fw.Stats().DFSMStates
			}
			b.ReportMetric(float64(states), "dfsm-nodes")
		})
	}
}

// BenchmarkAblationDominance compares full simulation-preorder dominance
// against identity-only dominance (search-space effect of the dominance
// design choice).
func BenchmarkAblationDominance(b *testing.B) {
	for _, simStates := range []int{512, 1} { // 1 → identity dominance only
		name := "simulation"
		if simStates == 1 {
			name = "identity"
		}
		b.Run(name, func(b *testing.B) {
			var plans int64
			for i := 0; i < b.N; i++ {
				_, g, err := querygen.Generate(querygen.Spec{Relations: 7, ExtraEdges: 1, Seed: 11})
				if err != nil {
					b.Fatal(err)
				}
				a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
				if err != nil {
					b.Fatal(err)
				}
				cfg := optimizer.DefaultConfig(optimizer.ModeDFSM)
				cfg.CoreOptions.MaxSimulationStates = simStates
				res, err := optimizer.Optimize(a, cfg)
				if err != nil {
					b.Fatal(err)
				}
				plans = res.PlansGenerated
			}
			b.ReportMetric(float64(plans), "plans")
		})
	}
}

// BenchmarkPlannerThroughput measures the planner layer on TPC-R Q8 at
// its three amortization levels — cold (full pipeline per plan),
// prepared (prepared statement, DP re-run on pooled scratch) and
// cachehit (the plan stored on the prepared statement) — serially and
// across GOMAXPROCS. Every result is checked against the cold best-plan
// cost, and the cache-hit path should report near-zero allocations.
func BenchmarkPlannerThroughput(b *testing.B) {
	sql := tpcr.Query8SQL
	cfg := planner.DefaultConfig(tpcr.Schema())
	ctx := context.Background()
	ref, err := planner.New(cfg).PlanContext(ctx, sql)
	if err != nil {
		b.Fatal(err)
	}

	paths := []struct {
		name  string
		setup func(b *testing.B) func() (float64, error)
	}{
		{"cold", func(b *testing.B) func() (float64, error) {
			return func() (float64, error) {
				pd, err := planner.New(cfg).PlanContext(ctx, sql)
				return pd.Cost, err
			}
		}},
		{"prepared", func(b *testing.B) func() (float64, error) {
			_, q, err := planner.New(cfg).PlanQueryContext(ctx, sql)
			if err != nil {
				b.Fatal(err)
			}
			prep := q.Prepared()
			return func() (float64, error) {
				res, err := prep.Run()
				if err != nil {
					return 0, err
				}
				return res.Best.Cost, nil
			}
		}},
		{"cachehit", func(b *testing.B) func() (float64, error) {
			pl := planner.New(cfg)
			if _, err := pl.PlanContext(ctx, sql); err != nil { // store the statement's plan
				b.Fatal(err)
			}
			return func() (float64, error) {
				pd, err := pl.PlanContext(ctx, sql)
				return pd.Cost, err
			}
		}},
	}
	for _, path := range paths {
		b.Run(path.name+"/serial", func(b *testing.B) {
			fn := path.setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cost, err := fn()
				if err != nil {
					b.Fatal(err)
				}
				if cost != ref.Cost {
					b.Fatalf("cost %v, cold reference %v", cost, ref.Cost)
				}
			}
		})
		b.Run(path.name+"/parallel", func(b *testing.B) {
			fn := path.setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					cost, err := fn()
					if err != nil {
						b.Error(err)
						return
					}
					if cost != ref.Cost {
						b.Errorf("cost %v, cold reference %v", cost, ref.Cost)
						return
					}
				}
			})
		})
	}
}

// BenchmarkLargeQuery measures the adaptive planning tier on join
// graphs around and beyond the exact-DP horizon, on the prepared path
// (Prepare once, Run per iteration — the serving layer's steady state).
// Points within the horizon run under both strategies, and the
// linearized run reports its cost ratio against the exact optimum; the
// large points run linearized only — the exact DP would take minutes
// to forever, which is the tier's reason to exist.
func BenchmarkLargeQuery(b *testing.B) {
	points := []struct {
		shape querygen.Shape
		n     int
		exact bool
	}{
		{querygen.Chain, 10, true},
		{querygen.Star, 10, true},
		{querygen.Cycle, 10, true},
		{querygen.Grid, 9, true},
		{querygen.Clique, 8, true},
		{querygen.Chain, 20, false},
		{querygen.Star, 30, false},
		{querygen.Cycle, 24, false},
		{querygen.Grid, 25, false},
		{querygen.Clique, 20, false},
	}
	prepFor := func(b *testing.B, shape querygen.Shape, n int, strat optimizer.Strategy) *optimizer.Prepared {
		b.Helper()
		_, g, err := querygen.Generate(querygen.Spec{Relations: n, Shape: shape, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
		if err != nil {
			b.Fatal(err)
		}
		cfg := optimizer.DefaultConfig(optimizer.ModeDFSM)
		cfg.Strategy = strat
		prep, err := optimizer.Prepare(a, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return prep
	}
	for _, pt := range points {
		var exactCost float64
		if pt.exact {
			b.Run(fmt.Sprintf("%s-%d/exact", pt.shape, pt.n), func(b *testing.B) {
				prep := prepFor(b, pt.shape, pt.n, optimizer.StrategyExact)
				b.ReportAllocs()
				b.ResetTimer()
				var plans int64
				for i := 0; i < b.N; i++ {
					res, err := prep.Run()
					if err != nil {
						b.Fatal(err)
					}
					exactCost = res.Best.Cost
					plans = res.PlansGenerated
				}
				b.ReportMetric(float64(plans), "plans")
			})
		}
		b.Run(fmt.Sprintf("%s-%d/linearized", pt.shape, pt.n), func(b *testing.B) {
			prep := prepFor(b, pt.shape, pt.n, optimizer.StrategyLinearized)
			b.ReportAllocs()
			b.ResetTimer()
			var cost float64
			var plans int64
			for i := 0; i < b.N; i++ {
				res, err := prep.Run()
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Best.Cost
				plans = res.PlansGenerated
			}
			b.ReportMetric(float64(plans), "plans")
			if exactCost > 0 {
				b.ReportMetric(cost/exactCost, "cost-ratio")
			}
		})
	}
}

// BenchmarkExecRuntime measures query execution — not planning — for
// the three planning variants of the exec experiment over the TPC-R
// workloads: the DFSM-planned and Simmen-planned pipelines (merge
// joins over presorted indexes, ordered grouping, sorts only where the
// order framework could not avoid them) against the order-oblivious
// baseline (hash joins and hash grouping only, one sort at the top).
// ns/op is pipeline wall time; rows-sorted/op how many rows the plan
// actually sorted. The headline: on the order-flow workload the
// DFSM-planned pipeline sorts nothing and beats the oblivious plan
// several-fold at runtime (experiments -table exec is the table form).
func BenchmarkExecRuntime(b *testing.B) {
	workloads, err := experiments.ExecWorkloads(experiments.ExecSpec{})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workloads {
		if !strings.HasPrefix(w.Name, "q8/") && !strings.HasPrefix(w.Name, "orders/") {
			continue // generated workloads run via cmd/experiments -table exec
		}
		for _, v := range conformance.Idioms() {
			b.Run(w.Name+"/"+v.Name, func(b *testing.B) {
				a, err := query.Analyze(w.Graph, v.Analyze)
				if err != nil {
					b.Fatal(err)
				}
				res, err := optimizer.Optimize(a, v.Config)
				if err != nil {
					b.Fatal(err)
				}
				runner := w.Dataset.Runner(a)
				runner.DisableTiming = true
				var rows, sorted int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p, err := runner.Compile(res.Best)
					if err != nil {
						b.Fatal(err)
					}
					out, err := p.Execute()
					if err != nil {
						b.Fatal(err)
					}
					rows = int64(len(out))
					sorted = p.RowsSorted()
				}
				b.ReportMetric(float64(rows), "result-rows")
				b.ReportMetric(float64(sorted), "rows-sorted/op")
			})
		}
	}
}

// BenchmarkExecParallel measures morsel-parallel scaling: the TPC-R
// execution workloads planned with the DFSM framework at MaxDOP 1, 2,
// 4 and 8 (dop=1 is the serial plan — no exchange — and the baseline
// to divide by). The parallel plans run the join spine through an
// order-preserving ExchangeMerge, so rows-sorted/op stays 0 on the
// orders workload at every DOP. cpu-ns/op is the process's user +
// system CPU per execution next to the wall clock's ns/op: what a
// request costs the machine at each DOP, not only how soon it ends.
func BenchmarkExecParallel(b *testing.B) {
	// A heap ballast pins the GC cycle rate so every DOP (including the
	// dop=1 serial baseline) is measured under the same GC regime —
	// without it, sub-millisecond queries are dominated by collector
	// cycles triggered every couple of executions.
	ballast := make([]byte, 96<<20)
	defer runtime.KeepAlive(ballast)
	workloads, err := experiments.ExecWorkloads(experiments.ExecSpec{})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workloads {
		if !strings.HasPrefix(w.Name, "q8/") && !strings.HasPrefix(w.Name, "orders/") {
			continue
		}
		a, err := query.Analyze(w.Graph, query.AnalyzeOptions{UseIndexes: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, dop := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/dop=%d", w.Name, dop), func(b *testing.B) {
				cfg := optimizer.DefaultConfig(optimizer.ModeDFSM)
				cfg.MaxDOP = dop
				res, err := optimizer.Optimize(a, cfg)
				if err != nil {
					b.Fatal(err)
				}
				runner := w.Dataset.Runner(a)
				runner.DisableTiming = true
				var rows, sorted int64
				b.ResetTimer()
				cpu := processCPU(b)
				for i := 0; i < b.N; i++ {
					p, err := runner.Compile(res.Best)
					if err != nil {
						b.Fatal(err)
					}
					out, err := p.Execute()
					if err != nil {
						b.Fatal(err)
					}
					rows = int64(len(out))
					sorted = p.RowsSorted()
				}
				b.ReportMetric(float64(processCPU(b)-cpu)/float64(b.N), "cpu-ns/op")
				b.ReportMetric(float64(rows), "result-rows")
				b.ReportMetric(float64(sorted), "rows-sorted/op")
			})
		}
	}
}

// processCPU is the user + system CPU time the process has used so far,
// in nanoseconds.
func processCPU(b *testing.B) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// BenchmarkExecTopK measures LIMIT-k execution on the order-flow query:
// the DFSM plan streams the result order off the clustered indexes and
// stops after k rows (the Limit quiesces the pipeline), while the
// order-oblivious plan must hash-join everything and sort the full
// result before it knows the first k rows. The limit-aware costing
// picks the early-out pipeline automatically — the benchmark fails if
// it ever chooses a sorting plan for the dfsm variant.
func BenchmarkExecTopK(b *testing.B) {
	reg := exec.TPCRLazyRegistry()
	variants := conformance.Idioms()
	planTopK := func(b *testing.B, ds *exec.Dataset, k int, v conformance.Idiom) (*query.Analysis, *plan.Node) {
		_, g, err := tpcr.OrderStreamGraph()
		if err != nil {
			b.Fatal(err)
		}
		g.Limit, g.HasLimit = k, true
		ds.ApplyStats(g)
		a, err := query.Analyze(g, v.Analyze)
		if err != nil {
			b.Fatal(err)
		}
		res, err := optimizer.Optimize(a, v.Config)
		if err != nil {
			b.Fatal(err)
		}
		if v.Name == "dfsm" && res.Best.Ops()[plan.Sort] != 0 {
			b.Fatalf("limit-aware costing chose a sorting plan:\n%s", res.Best)
		}
		return a, res.Best
	}
	for _, dsName := range []string{"tpcr-mid", "tpcr-large"} {
		ds, ok := reg.Get(dsName)
		if !ok {
			b.Fatalf("no dataset %s", dsName)
		}
		for _, k := range []int{1, 10, 100} {
			for _, v := range []conformance.Idiom{variants[0], variants[2]} {
				b.Run(fmt.Sprintf("orders/%s/k=%d/%s", dsName, k, v.Name), func(b *testing.B) {
					a, best := planTopK(b, ds, k, v)
					runner := ds.Runner(a)
					runner.DisableTiming = true
					var rows, sorted int64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						p, err := runner.Compile(best)
						if err != nil {
							b.Fatal(err)
						}
						out, err := p.Execute()
						if err != nil {
							b.Fatal(err)
						}
						rows = int64(len(out))
						sorted = p.RowsSorted()
					}
					b.ReportMetric(float64(rows), "result-rows")
					b.ReportMetric(float64(sorted), "rows-sorted/op")
				})
			}
		}
	}
	// warm is the served shape of a repeated top-10: a Runner per request,
	// timing on, over the one dataset every request shares — so whatever
	// a request rebuilds that the dataset could have kept shows up here
	// as bytes per op (exec.TestTopKHotAllocCeiling pins the number).
	b.Run("warm", func(b *testing.B) {
		ds, _ := reg.Get("tpcr-large")
		a, best := planTopK(b, ds, 10, variants[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := ds.Runner(a).Compile(best)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Execute(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNaiveClosure contrasts the naive explicit-set representation
// (§2's "intuitive approach") against the DFSM: the cost of one closure
// recomputation vs one table lookup.
func BenchmarkNaiveClosure(b *testing.B) {
	_, g, err := tpcr.Query8Graph()
	if err != nil {
		b.Fatal(err)
	}
	a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		b.Fatal(err)
	}
	ord := a.EdgeOrders[0][0][0]
	var fds []order.FD
	for _, s := range a.Sets {
		fds = append(fds, s.FDs...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !order.NaiveContains(a.Builder.Interner(), ord, fds, ord, 100000) {
			b.Fatal("unexpected result")
		}
	}
}
