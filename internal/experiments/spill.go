// The external-sort contrast: what sort avoidance buys once sorts no
// longer fit in memory. The order-flow query is planned both ways —
// DFSM sort-free vs order-oblivious with a top sort — and executed
// under the same spill budget: the oblivious plan's external sort goes
// to disk while the DFSM plan never sorts at all. The harness fails
// unless exactly that happens and both plans return the same result.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"orderopt/internal/exec"
	"orderopt/internal/plan"
	"orderopt/internal/tpcr"
)

// SpillSpec parameterizes the external-sort contrast.
type SpillSpec struct {
	// Datasets names the TPC-R datasets (default tpcr-large and
	// tpcr-xl; "tpcr-xl" resolves outside the standard registry).
	Datasets []string
	// Runs is the number of timed executions per measurement; the
	// minimum is reported (default 5).
	Runs int
	// SpillBytes is the external-sort budget (default 256 KiB — small
	// enough that the oblivious plan's top sort spills on every dataset
	// the experiment runs).
	SpillBytes int64
}

func (s *SpillSpec) defaults() {
	if len(s.Datasets) == 0 {
		s.Datasets = []string{"tpcr-large", "tpcr-xl"}
	}
	if s.Runs == 0 {
		s.Runs = 5
	}
	if s.SpillBytes == 0 {
		s.SpillBytes = 256 << 10
	}
}

// SpillRow is one (workload, variant) measurement: the same ordered
// query planned sort-free (dfsm) and order-obliviously (hash joins +
// one top sort), both executed under the same external-sort budget.
type SpillRow struct {
	Workload string
	Variant  string // "dfsm" or "oblivious"

	ExecTime time.Duration
	Rows     int64
	Checksum int64
	// Sorts counts Sort operators in the plan (0 for the sort-avoiding
	// plan — which is why its SpillRuns stay 0 at any scale).
	Sorts int
	// SpillRuns / SpilledBytes report the external sorts' disk
	// activity under the spec's budget.
	SpillRuns    int64
	SpilledBytes int64
}

// Spill measures the contrast: the order-flow query per dataset,
// planned sort-free and order-obliviously, both under the spec's
// external-sort budget. A dfsm plan that spills, an oblivious plan
// that does not, or a result mismatch between the two is an error, not
// a table entry.
func Spill(spec SpillSpec) ([]SpillRow, error) {
	spec.defaults()
	var out []SpillRow
	reg := exec.TPCRLazyRegistry()
	for _, name := range spec.Datasets {
		ds, err := dataset(reg, name)
		if err != nil {
			return nil, err
		}
		_, g, err := tpcr.OrderStreamGraph()
		if err != nil {
			return nil, err
		}
		ds.ApplyStats(g)
		var pair [2]SpillRow
		for i, v := range dfsmVsOblivious() {
			m, err := measure(g, ds, v, spec.Runs, spec.SpillBytes)
			if err != nil {
				return nil, fmt.Errorf("spill %s/%s: %w", name, v.Name, err)
			}
			pair[i] = SpillRow{
				Workload:     "orders/" + name,
				Variant:      v.Name,
				ExecTime:     m.execTime,
				Rows:         int64(len(m.rows)),
				Checksum:     exec.ChecksumRows(exec.Canonicalize(m.rows, m.schema, g)),
				Sorts:        m.ops[plan.Sort],
				SpillRuns:    m.spillRuns,
				SpilledBytes: m.spillSize,
			}
		}
		free, sorted := pair[0], pair[1]
		switch {
		case free.SpillRuns != 0:
			return nil, fmt.Errorf("spill %s: the dfsm plan spilled %d runs, want a sort-free plan", name, free.SpillRuns)
		case sorted.SpillRuns == 0:
			return nil, fmt.Errorf("spill %s: the oblivious plan's sort never spilled under a %d-byte budget", name, spec.SpillBytes)
		case free.Rows != sorted.Rows || free.Checksum != sorted.Checksum:
			return nil, fmt.Errorf("spill %s: oblivious result (%d rows, checksum %d) differs from dfsm (%d rows, checksum %d)",
				name, sorted.Rows, sorted.Checksum, free.Rows, free.Checksum)
		}
		out = append(out, pair[:]...)
	}
	return out, nil
}

// FormatSpill renders the contrast table.
func FormatSpill(rows []SpillRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "external-sort contrast (budget-bounded sorts; dfsm avoids the sort entirely):\n")
	fmt.Fprintf(&b, "%-18s %-10s | %9s %9s %6s %6s %12s\n",
		"workload", "variant", "exec(ms)", "rows", "sorts", "spills", "spilled(KiB)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-10s | %9.2f %9d %6d %6d %12.1f\n",
			r.Workload, r.Variant, ms(r.ExecTime), r.Rows, r.Sorts, r.SpillRuns, float64(r.SpilledBytes)/1024)
	}
	return b.String()
}
