package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/paper_tables.golden")

// goldenSweep is the Figure 13/14 sweep the golden file records: small
// enough for tier-1, every edge density the paper plots.
var goldenSweep = SweepSpec{Sizes: []int{5, 6, 7}, Extras: []int{0, 1, 2}, Seeds: 2}

// TestPaperTablesGolden pins the deterministic columns of the paper
// tables — §6.2 state counts and precomputed bytes, §7 plan counts and
// memory per mode, Figure 13/14 plans and KB over goldenSweep — and of
// the runtime claim, the exec and topk tables' rows, rows sorted and
// plan shape at their Spec defaults, against
// testdata/paper_tables.golden, so a change to the NFSM, the DFSM, the
// plan generator or the executor that moves any of them fails here
// instead of being compared by hand. Timing columns are left out.
// Re-record an intentional change with -update and review the diff.
func TestPaperTablesGolden(t *testing.T) {
	var b strings.Builder
	prep, err := PrepQ8()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&b, "# §6.2 prep: TPC-R Q8, O_T = ∅")
	for _, r := range prep {
		fmt.Fprintf(&b, "prep pruning=%v nfsm=%d dfsm=%d bytes=%d\n", r.Pruning, r.NFSMSize, r.DFSMSize, r.Bytes)
	}
	q8, err := Q8(1)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&b, "# §7 q8: plan generation for TPC-R Q8")
	for _, r := range q8 {
		fmt.Fprintf(&b, "q8 mode=%s plans=%d mem_bytes=%d\n", r.Mode, r.Plans, r.MemBytes)
	}
	rows, err := Sweep(goldenSweep)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "# fig13/fig14: sizes %v, extras %v, %d seeds; plans and KB are seed means\n",
		goldenSweep.Sizes, goldenSweep.Extras, goldenSweep.Seeds)
	for _, r := range rows {
		fmt.Fprintf(&b, "sweep n=%d edges=%s simmen_plans=%g simmen_kb=%g ours_plans=%g ours_kb=%g dfsm_kb=%g\n",
			r.N, edgeLabel(r.Extra), r.SimmenPlans, r.SimmenMemKB, r.OursPlans, r.OursMemKB, r.DFSMKB)
	}
	execRows, err := Exec(ExecSpec{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&b, "# exec: default workloads, every variant; result rows, rows sorted, operator counts")
	for _, r := range execRows {
		fmt.Fprintf(&b, "exec workload=%s variant=%s rows=%d rows_sorted=%d mj=%d hj=%d so=%d gh=%d go=%d\n",
			r.Workload, r.Variant, r.Rows, r.RowsSorted, r.MergeJoins, r.HashJoins, r.Sorts, r.HashGroups, r.OrderedGroups)
	}
	topkRows, err := Topk(TopkSpec{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&b, "# topk: default datasets and ks, dfsm vs oblivious; emitted rows, rows sorted, sort-free plan")
	for _, r := range topkRows {
		fmt.Fprintf(&b, "topk workload=%s k=%d variant=%s rows=%d rows_sorted=%d order_satisfying=%v\n",
			r.Workload, r.K, r.Variant, r.Rows, r.RowsSorted, r.OrderSatisfying)
	}

	path := filepath.Join("testdata", "paper_tables.golden")
	if *update {
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
		t.Errorf("paper tables differ from %s (re-record with -update if intended)\n--- want\n%s--- got\n%s", path, want, got)
	}
}
