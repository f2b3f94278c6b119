// The top-k experiment: what limit-aware costing buys at runtime. The
// order-flow query (orders ⋈ customer ⋈ lineitem ordered by
// o_orderkey) is given a LIMIT k and planned two ways — with the DFSM
// order framework, whose clustered-index merge pipeline satisfies the
// ORDER BY as it streams and therefore stops after k rows, and
// order-obliviously, where the only way to know the first k rows is to
// hash-join everything and sort the full result. The gap between the
// two is the entire join minus k rows of work, so it widens with the
// dataset and shrinks only marginally with k.
package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"orderopt/internal/conformance"
	"orderopt/internal/exec"
	"orderopt/internal/plan"
	"orderopt/internal/tpcr"
)

// TopkSpec parameterizes the top-k experiment.
type TopkSpec struct {
	// Datasets names the TPC-R datasets (default tpcr-mid, tpcr-large).
	Datasets []string
	// Ks lists the LIMIT values (default 1, 10, 100).
	Ks []int
	// Runs is the number of timed executions per cell; the minimum is
	// reported (default 3).
	Runs int
}

func (s *TopkSpec) defaults() {
	if len(s.Datasets) == 0 {
		s.Datasets = []string{"tpcr-mid", "tpcr-large"}
	}
	if len(s.Ks) == 0 {
		s.Ks = []int{1, 10, 100}
	}
	if s.Runs == 0 {
		s.Runs = 3
	}
}

// TopkRow is one (workload, k, variant) measurement.
type TopkRow struct {
	Workload string
	K        int
	Variant  string // dfsm or oblivious

	// PlanTime is prep + DP; ExecTime the minimum pipeline wall time
	// over the spec's runs.
	PlanTime time.Duration
	ExecTime time.Duration
	// Rows is the emitted cardinality (min(k, result size)); RowsSorted
	// how many rows Sort operators consumed — the full join for the
	// oblivious plan, 0 when the pipeline satisfies the order.
	Rows       int64
	RowsSorted int64
	// OrderSatisfying reports a sort-free chosen plan: the limit-aware
	// costing recognized that an order-satisfying pipeline plus a cheap
	// top-k beats hash-everything plus a full sort.
	OrderSatisfying bool
}

// Topk runs the experiment: every dataset × k × variant, with
// cross-variant verification that both plans emitted the same ordered
// key prefix.
func Topk(spec TopkSpec) ([]TopkRow, error) {
	spec.defaults()
	var rows []TopkRow
	reg := exec.TPCRLazyRegistry()
	for _, name := range spec.Datasets {
		ds, err := dataset(reg, name)
		if err != nil {
			return nil, err
		}
		for _, k := range spec.Ks {
			var refKeys []int64
			for vi, v := range dfsmVsOblivious() {
				row, keys, err := topkOne(ds, k, v, spec.Runs)
				if err != nil {
					return nil, fmt.Errorf("topk %s/k=%d/%s: %w", name, k, v.Name, err)
				}
				row.Workload = "orders/" + name
				// The ORDER BY key is not unique (an order joins many
				// lineitems), so the k-th row is ambiguous within its key
				// group — but the multiset of emitted keys is not. That is
				// the cross-variant invariant.
				slices.Sort(keys)
				if vi == 0 {
					refKeys = keys
				} else if !slices.Equal(keys, refKeys) {
					return nil, fmt.Errorf("topk %s/k=%d: variant %s emitted a different key prefix than dfsm", name, k, v.Name)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// topkOne measures the order-flow query with LIMIT k under one variant,
// returning the row and the emitted ORDER BY keys.
func topkOne(ds *exec.Dataset, k int, v conformance.Idiom, runs int) (TopkRow, []int64, error) {
	_, g, err := tpcr.OrderStreamGraph()
	if err != nil {
		return TopkRow{}, nil, err
	}
	g.Limit, g.HasLimit = k, true
	ds.ApplyStats(g)
	m, err := measure(g, ds, v, runs)
	if err != nil {
		return TopkRow{}, nil, err
	}
	if m.ops[plan.Limit] == 0 {
		return TopkRow{}, nil, fmt.Errorf("chosen plan has no Limit operator (operators %v)", m.ops)
	}
	cols := make([]int, len(g.OrderBy))
	for ci, c := range g.OrderBy {
		if cols[ci] = exec.ColPos(m.schema, c); cols[ci] < 0 {
			return TopkRow{}, nil, fmt.Errorf("ORDER BY column %v missing from output schema", c)
		}
	}
	if !exec.SatisfiesOrdering(m.rows, cols) {
		return TopkRow{}, nil, fmt.Errorf("limited result violates the ORDER BY")
	}
	keys := make([]int64, len(m.rows))
	for ri, r := range m.rows {
		keys[ri] = r[cols[0]]
	}
	return TopkRow{
		K:               k,
		Variant:         v.Name,
		PlanTime:        m.planTime,
		ExecTime:        m.execTime,
		Rows:            int64(len(m.rows)),
		RowsSorted:      m.rowsSorted,
		OrderSatisfying: m.ops[plan.Sort] == 0,
	}, keys, nil
}

// FormatTopk renders the top-k table plus the headline speedups (dfsm
// vs oblivious runtime per workload and k).
func FormatTopk(rows []TopkRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %5s %-10s | %9s %9s | %6s %11s | %s\n",
		"workload", "k", "variant", "plan(ms)", "exec(ms)", "rows", "rows-sorted", "order-satisfying")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %5d %-10s | %9.2f %9.2f | %6d %11d | %v\n",
			r.Workload, r.K, r.Variant, ms(r.PlanTime), ms(r.ExecTime),
			r.Rows, r.RowsSorted, r.OrderSatisfying)
	}
	writeSpeedups(&b, len(rows), func(i int) (string, string, time.Duration) {
		return fmt.Sprintf("%s k=%d", rows[i].Workload, rows[i].K), rows[i].Variant, rows[i].ExecTime
	})
	return b.String()
}
