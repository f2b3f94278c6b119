// The end-to-end execution experiment: the paper's thesis measured at
// runtime. The same query over the same data is planned three ways —
// with the DFSM order framework, with the Simmen baseline (both pick
// sort-avoiding merge-join / ordered-grouping pipelines where the cost
// model says so), and order-obliviously (merge joins, index orders and
// ordered grouping disabled: hash everything, one sort at the very top)
// — and each plan is executed by the streaming executor. Wall-clock
// runtime and rows-sorted quantify what O(1) order reasoning buys where
// it finally matters: not plan-generation microseconds but query
// execution (Simmen et al.'s original motivation for order
// optimization).
package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"orderopt/internal/conformance"
	"orderopt/internal/exec"
	"orderopt/internal/optimizer"
	"orderopt/internal/plan"
	"orderopt/internal/query"
	"orderopt/internal/querygen"
	"orderopt/internal/tpcr"
)

// dfsmVsOblivious is the two-sided contrast of the topk table: the full
// order framework against the order-oblivious baseline (no merge joins,
// no index orders — the plan must sort at the top). The exec table runs
// all three conformance idioms.
func dfsmVsOblivious() []conformance.Idiom {
	all := conformance.Idioms()
	return []conformance.Idiom{all[0], all[2]}
}

// dataset resolves a dataset name in reg (a TPC-R registry, which loads
// only the tiers asked for).
func dataset(reg *exec.Registry, name string) (*exec.Dataset, error) {
	if ds, ok := reg.Get(name); ok {
		return ds, nil
	}
	return nil, fmt.Errorf("experiments: unknown TPC-R dataset %q (have %v)", name, reg.Names())
}

// measurement is one variant's run of a graph over a dataset: what the
// chosen plan is made of, its fastest execution and its first
// execution's output.
type measurement struct {
	planTime, execTime time.Duration
	ops                map[plan.Op]int
	rows               []exec.Row
	schema             []query.ColumnRef
	rowsSorted         int64
}

// measure plans g under v and executes the plan runs times over ds with
// operator clocks off, keeping the minimum time.
func measure(g *query.Graph, ds *exec.Dataset, v conformance.Idiom, runs int) (measurement, error) {
	a, err := query.Analyze(g, v.Analyze)
	if err != nil {
		return measurement{}, err
	}
	res, err := optimizer.Optimize(a, v.Config)
	if err != nil {
		return measurement{}, err
	}
	m := measurement{planTime: res.PrepTime + res.PlanTime, ops: res.Best.Ops()}
	runner := ds.Runner(a)
	runner.DisableTiming = true // measure the pipeline, not the meter
	for i := 0; i < max(runs, 1); i++ {
		p, err := runner.Compile(res.Best)
		if err != nil {
			return measurement{}, err
		}
		begin := time.Now()
		out, err := p.Execute()
		elapsed := time.Since(begin)
		if err != nil {
			return measurement{}, err
		}
		if i == 0 {
			m.rows, m.schema, m.rowsSorted = out, p.Schema, p.RowsSorted()
		}
		if i == 0 || elapsed < m.execTime {
			m.execTime = elapsed
		}
	}
	return m, nil
}

// ExecSpec parameterizes the execution experiment.
type ExecSpec struct {
	// Datasets names the TPC-R datasets to run Q8 over (default
	// tpcr-mid and tpcr-large).
	Datasets []string
	// Runs is the number of timed executions per measurement; the
	// minimum is reported (default 3).
	Runs int
	// QuerygenQueries is the number of generated grouped join queries
	// (default 3); QuerygenRelations and QuerygenRows size each
	// (defaults 5 relations, 48 rows per table).
	QuerygenQueries   int
	QuerygenRelations int
	QuerygenRows      int
	// Seed offsets workload generation.
	Seed int64
	// Workers bounds the parallel-scaling measurement: the dfsm variant
	// is additionally planned and run at every DOP in {2, 4, 8} up to
	// Workers (default 4), the fastest reported per workload
	// (checksum-verified against the serial result). 1 skips it.
	Workers int
}

func (s *ExecSpec) defaults() {
	if len(s.Datasets) == 0 {
		s.Datasets = []string{"tpcr-mid", "tpcr-large"}
	}
	if s.Runs == 0 {
		s.Runs = 3
	}
	if s.QuerygenQueries == 0 {
		s.QuerygenQueries = 3
	}
	if s.QuerygenRelations == 0 {
		s.QuerygenRelations = 5
	}
	if s.QuerygenRows == 0 {
		s.QuerygenRows = 48
	}
	if s.Workers == 0 {
		s.Workers = 4
	}
}

// ExecRow is one (workload, variant) measurement.
type ExecRow struct {
	Workload string
	Variant  string // dfsm, simmen or oblivious

	// PlanTime is prep + DP for this variant (one-time per query).
	PlanTime time.Duration
	// ExecTime is the minimum pipeline wall time over the spec's runs.
	ExecTime time.Duration
	// Rows is the result cardinality; identical across variants of one
	// workload (verified, together with a value checksum).
	Rows int64
	// RowsSorted counts rows that passed through Sort operators (an
	// index scan sorts nothing: it streams the dataset's presorted view).
	RowsSorted int64
	// MergeJoins / HashJoins / Sorts / HashGroups count the pipeline's
	// operators by kind (sorted grouping under OrderedGroups).
	MergeJoins    int
	HashJoins     int
	Sorts         int
	HashGroups    int
	OrderedGroups int

	// ParallelTime / ParallelDOP report the morsel-parallel scaling
	// measurement (dfsm rows only, when ExecSpec.Workers > 1): the best
	// pipeline wall time over the DOP sweep and the DOP that achieved
	// it. The parallel result is checksum-verified against the serial
	// one before it is reported.
	ParallelTime time.Duration
	ParallelDOP  int
}

// ExecWorkload is one query + dataset the variants all run; shared by
// the exec table and the root BenchmarkExecRuntime.
type ExecWorkload struct {
	Name    string
	Graph   *query.Graph
	Dataset *exec.Dataset
}

// ExecWorkloads builds the experiment's workload set: TPC-R Q8 and the
// order-flow query per dataset (statistics restated to the dataset),
// plus generated grouped join queries.
func ExecWorkloads(spec ExecSpec) ([]ExecWorkload, error) {
	spec.defaults()
	var out []ExecWorkload
	reg := exec.TPCRLazyRegistry()
	for _, name := range spec.Datasets {
		ds, err := dataset(reg, name)
		if err != nil {
			return nil, err
		}
		_, g, err := tpcr.Query8Graph()
		if err != nil {
			return nil, err
		}
		// Plan against the dataset's real statistics, not the SF-1
		// catalog numbers: cost-based sort-vs-hash decisions only mean
		// anything at runtime if the estimates describe the actual data.
		ds.ApplyStats(g)
		out = append(out, ExecWorkload{Name: "q8/" + name, Graph: g, Dataset: ds})

		_, og, err := tpcr.OrderStreamGraph()
		if err != nil {
			return nil, err
		}
		ds.ApplyStats(og)
		out = append(out, ExecWorkload{Name: "orders/" + name, Graph: og, Dataset: ds})
	}
	shapes := querygen.Shapes()
	for i := 0; i < spec.QuerygenQueries; i++ {
		seed := spec.Seed + int64(i)
		cat, g, err := querygen.Generate(querygen.Spec{
			Relations:   spec.QuerygenRelations,
			Shape:       shapes[i%len(shapes)],
			Seed:        seed,
			WithGroupBy: true,
		})
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("gen-%s%d-s%d", shapes[i%len(shapes)], spec.QuerygenRelations, seed)
		ds := exec.QuerygenDataset(name, cat, g, spec.QuerygenRows, seed+500)
		ds.ApplyStats(g)
		out = append(out, ExecWorkload{Name: name, Graph: g, Dataset: ds})
	}
	return out, nil
}

// Exec runs the execution experiment: every workload under every
// planning variant, with cross-variant result verification.
func Exec(spec ExecSpec) ([]ExecRow, error) {
	spec.defaults() // ExecWorkloads defaults its own copy; Runs is used here
	workloads, err := ExecWorkloads(spec)
	if err != nil {
		return nil, err
	}
	variants := conformance.Idioms()
	var rows []ExecRow
	for _, w := range workloads {
		var ref ExecRow
		var refSum int64
		for vi, v := range variants {
			row, sum, err := execOne(w, v, spec.Runs)
			if err != nil {
				return nil, fmt.Errorf("exec %s/%s: %w", w.Name, v.Name, err)
			}
			if vi == 0 {
				ref, refSum = row, sum
				// Parallel scaling rides on the dfsm row: the same plan
				// family at increasing DOP, fastest wins. Checksums must
				// match the serial run — the exchanges may not change the
				// result, only the wall clock.
				for _, dop := range []int{2, 4, 8} {
					if dop > spec.Workers {
						break
					}
					pv := v
					pv.Config.MaxDOP = dop
					prow, psum, err := execOne(w, pv, spec.Runs)
					if err != nil {
						return nil, fmt.Errorf("exec %s/%s dop=%d: %w", w.Name, v.Name, dop, err)
					}
					if prow.Rows != row.Rows || psum != sum {
						return nil, fmt.Errorf("exec %s: dop=%d result (%d rows, checksum %d) differs from serial (%d rows, checksum %d)",
							w.Name, dop, prow.Rows, psum, row.Rows, sum)
					}
					if row.ParallelDOP == 0 || prow.ExecTime < row.ParallelTime {
						row.ParallelTime, row.ParallelDOP = prow.ExecTime, dop
					}
				}
			} else if row.Rows != ref.Rows || sum != refSum {
				return nil, fmt.Errorf("exec %s: variant %s result (%d rows, checksum %d) differs from %s (%d rows, checksum %d)",
					w.Name, v.Name, row.Rows, sum, ref.Variant, ref.Rows, refSum)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// execOne measures one workload under one variant, returning the row
// and an order-insensitive checksum of the result for cross-variant
// verification (exec.ChecksumRows, the conformance corpus' notion of
// "identical result").
func execOne(w ExecWorkload, v conformance.Idiom, runs int) (ExecRow, int64, error) {
	m, err := measure(w.Graph, w.Dataset, v, runs)
	if err != nil {
		return ExecRow{}, 0, err
	}
	out := m.rows
	if len(w.Graph.GroupBy) == 0 {
		// Ungrouped results carry variant-dependent column orders
		// (different join trees): canonicalize before checksumming.
		out = exec.Canonicalize(out, m.schema, w.Graph)
	}
	return ExecRow{
		Workload:      w.Name,
		Variant:       v.Name,
		PlanTime:      m.planTime,
		ExecTime:      m.execTime,
		Rows:          int64(len(m.rows)),
		RowsSorted:    m.rowsSorted,
		MergeJoins:    m.ops[plan.MergeJoin],
		HashJoins:     m.ops[plan.HashJoin],
		Sorts:         m.ops[plan.Sort],
		HashGroups:    m.ops[plan.GroupHash],
		OrderedGroups: m.ops[plan.GroupSorted],
	}, exec.ChecksumRows(out), nil
}

// FormatExec renders the execution table plus the headline speedups
// (dfsm vs oblivious runtime per workload, and — when the experiment
// ran the DOP sweep — serial vs best-DOP parallel scaling).
func FormatExec(rows []ExecRow) string {
	parallel := slices.ContainsFunc(rows, func(r ExecRow) bool { return r.ParallelDOP > 0 })
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-10s | %9s %9s |", "workload", "variant", "plan(ms)", "exec(ms)")
	if parallel {
		fmt.Fprintf(&b, " %8s %3s |", "par(ms)", "dop")
	}
	fmt.Fprintf(&b, " %8s %10s | %2s %2s %2s %2s %2s\n",
		"rows", "rows-sorted", "mj", "hj", "so", "gh", "go")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-10s | %9.2f %9.2f |",
			r.Workload, r.Variant, ms(r.PlanTime), ms(r.ExecTime))
		if parallel {
			if r.ParallelDOP > 0 {
				fmt.Fprintf(&b, " %8.2f %3d |", ms(r.ParallelTime), r.ParallelDOP)
			} else {
				fmt.Fprintf(&b, " %8s %3s |", "-", "-")
			}
		}
		fmt.Fprintf(&b, " %8d %10d | %2d %2d %2d %2d %2d\n",
			r.Rows, r.RowsSorted,
			r.MergeJoins, r.HashJoins, r.Sorts, r.HashGroups, r.OrderedGroups)
	}
	writeSpeedups(&b, len(rows), func(i int) (string, string, time.Duration) {
		return rows[i].Workload, rows[i].Variant, rows[i].ExecTime
	})
	for _, r := range rows {
		if r.ParallelDOP > 0 && r.ExecTime > 0 && r.ParallelTime > 0 {
			fmt.Fprintf(&b, "%s: parallel scaling serial vs dop=%d = %.2fx\n",
				r.Workload, r.ParallelDOP, float64(r.ExecTime)/float64(r.ParallelTime))
		}
	}
	return b.String()
}

// writeSpeedups writes the headline line "<key>: dfsm vs
// order-oblivious runtime = N×" for each key of the n measurements
// (key, variant, time) = at(i) that both variants ran, in first-seen
// key order.
func writeSpeedups(b *strings.Builder, n int, at func(i int) (key, variant string, t time.Duration)) {
	var keys []string
	times := map[[2]string]time.Duration{}
	for i := range n {
		key, variant, t := at(i)
		if !slices.Contains(keys, key) {
			keys = append(keys, key)
		}
		times[[2]string{key, variant}] = t
	}
	for _, key := range keys {
		dfsm, obl := times[[2]string{key, "dfsm"}], times[[2]string{key, "oblivious"}]
		if dfsm > 0 && obl > 0 {
			fmt.Fprintf(b, "%s: dfsm vs order-oblivious runtime = %.2fx\n", key, float64(obl)/float64(dfsm))
		}
	}
}
