package experiments

import (
	"strings"
	"testing"
)

// TestTopkSmall runs the top-k experiment end to end at test sizes.
// The harness itself verifies that both variants emit the same ordered
// key prefix; here we additionally check the table's shape and the
// experiment's point: the limit-aware costing picks a sort-free
// order-satisfying plan for the dfsm variant at every k, while the
// oblivious plan sorts the whole join whatever k is.
func TestTopkSmall(t *testing.T) {
	rows, err := Topk(TopkSpec{
		Datasets: []string{"tpcr-small"},
		Ks:       []int{1, 5, 10000},
		Runs:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 ks × 2 variants.
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	full := rows[len(rows)-1].Rows // k=10000 is past the result size
	for _, r := range rows {
		switch r.Variant {
		case "dfsm":
			if !r.OrderSatisfying {
				t.Errorf("k=%d: limit-aware costing did not pick an order-satisfying dfsm plan", r.K)
			}
			if r.RowsSorted != 0 {
				t.Errorf("k=%d: dfsm pipeline sorted %d rows, want 0", r.K, r.RowsSorted)
			}
		case "oblivious":
			if r.OrderSatisfying {
				t.Errorf("k=%d: the oblivious plan cannot satisfy the order without sorting", r.K)
			}
			if r.RowsSorted != full {
				t.Errorf("k=%d: oblivious pipeline sorted %d rows, want the unlimited result %d", r.K, r.RowsSorted, full)
			}
		default:
			t.Errorf("unexpected variant %q", r.Variant)
		}
		if r.K < 10000 && r.Rows != int64(r.K) {
			t.Errorf("k=%d/%s: emitted %d rows", r.K, r.Variant, r.Rows)
		}
		if r.K == 10000 && r.Rows >= 10000 {
			t.Errorf("k beyond the result size must emit the full result, got %d rows", r.Rows)
		}
	}
	out := FormatTopk(rows)
	if !strings.Contains(out, "order-satisfying") || !strings.Contains(out, "dfsm vs order-oblivious") {
		t.Errorf("FormatTopk output missing expected sections:\n%s", out)
	}
}
