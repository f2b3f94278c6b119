package exec

import (
	"slices"
	"testing"
)

// TestJoinEmitAllocsAmortized pins a join emit's per-row allocation
// behavior: output rows, left ++ right or the live-column layout, are
// carved from chunked slabs, so a long stream costs one heap allocation
// per ~2k rows, not one per row.
func TestJoinEmitAllocsAmortized(t *testing.T) {
	l, r := Row{0, 10, 20, 30}, Row{40, 50}
	live := joinEmit{narrow: true, lcols: []int{3, 1}, rcols: []int{0}}
	for name, c := range map[string]struct {
		emit *joinEmit
		want Row
	}{
		"wide": {&joinEmit{}, Row{0, 10, 20, 30, 40, 50}},
		"live": {&live, Row{30, 10, 40}},
	} {
		avg := testing.AllocsPerRun(4000, func() {
			row, ok := c.emit.row(l, r)
			if !ok || !slices.Equal(row, c.want) {
				t.Fatalf("%s: emitted %v, want %v", name, row, c.want)
			}
		})
		if avg > 0.1 {
			t.Fatalf("%s: joinEmit.row averages %.3f allocs/row, want amortized < 0.1", name, avg)
		}
	}
}

// TestRowAllocRetention: carved rows stay valid and independent after
// arbitrarily many further carves — chunks are never recycled, so
// operators may retain emitted rows (hash builds, sort runs).
func TestRowAllocRetention(t *testing.T) {
	var al rowAlloc
	const n = 10000
	kept := make([]Row, n)
	for i := 0; i < n; i++ {
		r := al.carve(3)
		r[0], r[1], r[2] = int64(i), int64(i+1), int64(i+2)
		kept[i] = r
	}
	for i, r := range kept {
		if r[0] != int64(i) || r[1] != int64(i+1) || r[2] != int64(i+2) {
			t.Fatalf("row %d corrupted: %v", i, r)
		}
	}
	// Rows never alias: writing one must not touch its neighbors.
	kept[0][0] = -1
	if kept[1][0] != 1 {
		t.Fatal("adjacent carved rows alias")
	}
}

// TestScanNextDoesNotAllocate: the row path's base scan yields
// references into the backing rows — zero allocations per row.
func TestScanNextDoesNotAllocate(t *testing.T) {
	rows := make([]Row, 128)
	for i := range rows {
		rows[i] = Row{int64(i)}
	}
	s := NewScan(rows)
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		if _, ok, _ := s.Next(); !ok {
			s.pos = 0
		}
	})
	if avg != 0 {
		t.Fatalf("Scan.Next averages %.3f allocs/row, want 0", avg)
	}
}
