package experiments

import (
	"strings"
	"testing"
)

// TestSpillSmall runs the external-sort contrast end to end at test
// sizes. The harness itself fails unless the oblivious plan spills,
// the sort-free plan does not and both return the same checksum; here
// we additionally check the table's shape.
func TestSpillSmall(t *testing.T) {
	// Small enough that even tpcr-mid's top sort (a few hundred KiB of
	// order-flow output) exceeds it.
	const budget = 16 << 10
	rows, err := Spill(SpillSpec{Datasets: []string{"tpcr-mid"}, Runs: 1, SpillBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // 1 dataset × 2 variants
		t.Fatalf("spill rows = %d, want 2", len(rows))
	}
	for _, s := range rows {
		if s.Rows == 0 {
			t.Errorf("%s: zero result rows", s.Variant)
		}
		switch s.Variant {
		case "dfsm":
			if s.Sorts != 0 || s.SpillRuns != 0 || s.SpilledBytes != 0 {
				t.Errorf("dfsm: sorts=%d spills=%d bytes=%d, want all 0 (sort-free plan)",
					s.Sorts, s.SpillRuns, s.SpilledBytes)
			}
		case "oblivious":
			if s.Sorts == 0 {
				t.Errorf("oblivious: no Sort in plan")
			}
			if s.SpillRuns == 0 || s.SpilledBytes == 0 {
				t.Errorf("oblivious: spills=%d bytes=%d, want > 0 under a %d-byte budget",
					s.SpillRuns, s.SpilledBytes, budget)
			}
		default:
			t.Errorf("unexpected variant %q", s.Variant)
		}
	}

	out := FormatSpill(rows)
	for _, want := range []string{"orders/tpcr-mid", "dfsm", "oblivious", "spilled"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatSpill output missing %q:\n%s", want, out)
		}
	}
}

// TestSpillMustSpill: a budget the oblivious sort fits in shows no
// contrast, and the harness says so instead of printing a table.
func TestSpillMustSpill(t *testing.T) {
	_, err := Spill(SpillSpec{Datasets: []string{"tpcr-small"}, Runs: 1, SpillBytes: 1 << 30})
	if err == nil || !strings.Contains(err.Error(), "never spilled") {
		t.Fatalf("err = %v, want the oblivious plan reported as not spilling", err)
	}
}

// TestSpillUnknownDataset: name resolution covers the registry plus
// the out-of-registry xl tier, and nothing else.
func TestSpillUnknownDataset(t *testing.T) {
	if _, err := Spill(SpillSpec{Datasets: []string{"tpcr-nope"}, Runs: 1}); err == nil {
		t.Fatal("want error for unknown dataset")
	}
}
