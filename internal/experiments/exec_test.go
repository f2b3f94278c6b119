package experiments

import (
	"strings"
	"testing"
)

// TestExecSmall runs the execution experiment end to end at test sizes.
// The harness itself verifies that every planning variant produces the
// identical result multiset per workload; here we additionally check
// the table's shape and that the sort-avoidance signal shows up: on
// the order-flow workload the dfsm pipeline sorts nothing while the
// oblivious one re-sorts the entire result.
func TestExecSmall(t *testing.T) {
	rows, err := Exec(ExecSpec{
		Datasets:        []string{"tpcr-small"},
		Runs:            1,
		QuerygenQueries: 1,
		QuerygenRows:    16,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 workloads (q8, orders, one generated) × 3 variants.
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	byKey := map[string]ExecRow{}
	for _, r := range rows {
		byKey[r.Workload+"/"+r.Variant] = r
		if r.Rows <= 0 {
			t.Errorf("%s/%s: empty result", r.Workload, r.Variant)
		}
	}
	var ordersName string
	for _, r := range rows {
		if strings.HasPrefix(r.Workload, "orders/") {
			ordersName = r.Workload
		}
	}
	if ordersName == "" {
		t.Fatal("no order-flow workload")
	}
	dfsm, obl := byKey[ordersName+"/dfsm"], byKey[ordersName+"/oblivious"]
	if dfsm.RowsSorted != 0 {
		t.Errorf("dfsm order-flow pipeline sorted %d rows, want 0", dfsm.RowsSorted)
	}
	if obl.RowsSorted != obl.Rows {
		t.Errorf("oblivious order-flow pipeline sorted %d rows, want the full result %d",
			obl.RowsSorted, obl.Rows)
	}
	if obl.MergeJoins != 0 || obl.OrderedGroups != 0 {
		t.Errorf("oblivious plan exploits order: %+v", obl)
	}
	out := FormatExec(rows)
	if !strings.Contains(out, "dfsm vs order-oblivious runtime") {
		t.Errorf("missing speedup lines:\n%s", out)
	}
}
