package exec

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func rowsOf(vals ...[]int64) []Row {
	out := make([]Row, len(vals))
	for i, v := range vals {
		out[i] = Row(v)
	}
	return out
}

func TestScanAndCollect(t *testing.T) {
	rows := rowsOf([]int64{1, 2}, []int64{3, 4})
	got, err := Collect(NewScan(rows))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Errorf("Collect = %v", got)
	}
	// Re-open yields the same rows.
	got2, err := Collect(NewScan(rows))
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 2 {
		t.Error("second Collect broken")
	}
}

func TestFilter(t *testing.T) {
	rows := rowsOf([]int64{1, 10}, []int64{2, 20}, []int64{3, 30})
	got, err := Collect(&Filter{In: NewScan(rows), Pred: func(r Row) bool { return r[0] >= 2 }})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rowsOf([]int64{2, 20}, []int64{3, 30})) {
		t.Errorf("got %v", got)
	}
}

// rowByRow hides its input's runs: nextRun must pull it one Next at a
// time, as it does a hooked scan.
type rowByRow struct{ Iterator }

// TestNextRun: a scan's rows come out in runs of at most len(buf), in
// order, whether they come straight from a Scan's slice or are pulled
// one Next at a time, and a Filter over either hands out exactly the
// passing rows — compacted in place over buf in the second case.
func TestNextRun(t *testing.T) {
	var rows []Row
	for i := range int64(10) {
		rows = append(rows, Row{i})
	}
	even := func(r Row) bool { return r[0]%2 == 0 }
	for _, tc := range []struct {
		name string
		it   Iterator
		want []Row
	}{
		{"scan", NewScan(rows), rows},
		{"row by row", rowByRow{NewScan(rows)}, rows},
		{"filtered scan", &Filter{In: NewScan(rows), Pred: even}, rowsOf([]int64{0}, []int64{2}, []int64{4}, []int64{6}, []int64{8})},
		{"filtered row by row", &Filter{In: rowByRow{NewScan(rows)}, Pred: even}, rowsOf([]int64{0}, []int64{2}, []int64{4}, []int64{6}, []int64{8})},
	} {
		if err := tc.it.Open(); err != nil {
			t.Fatal(err)
		}
		var got []Row
		buf := make([]Row, 3)
		for {
			run, err := nextRun(tc.it, buf)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if len(run) == 0 {
				break
			}
			if len(run) > len(buf) {
				t.Errorf("%s: a run of %d rows from a buffer of %d", tc.name, len(run), len(buf))
			}
			got = append(got, run...)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: runs hold %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSortStable(t *testing.T) {
	rows := rowsOf([]int64{2, 1}, []int64{1, 2}, []int64{2, 0}, []int64{1, 1})
	got, err := Collect(&Sort{In: NewScan(rows), Keys: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	want := rowsOf([]int64{1, 2}, []int64{1, 1}, []int64{2, 1}, []int64{2, 0})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v (stable)", got, want)
	}
	if !SatisfiesOrdering(got, []int{0}) {
		t.Error("sorted output does not satisfy its ordering")
	}
}

func TestMergeJoinBasics(t *testing.T) {
	left := rowsOf([]int64{1, 100}, []int64{2, 200}, []int64{2, 201}, []int64{4, 400})
	right := rowsOf([]int64{1, -1}, []int64{2, -2}, []int64{3, -3})
	mj := &MergeJoin{
		Left: NewScan(left), Right: NewScan(right),
		LeftKey: 0, RightKey: 0,
	}
	got, err := Collect(mj)
	if err != nil {
		t.Fatal(err)
	}
	want := rowsOf(
		[]int64{1, 100, 1, -1},
		[]int64{2, 200, 2, -2},
		[]int64{2, 201, 2, -2},
		[]int64{4, 400}, // placeholder, fixed below
	)
	want = want[:3]
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestMergeJoinDuplicateGroups(t *testing.T) {
	left := rowsOf([]int64{1, 0}, []int64{1, 1})
	right := rowsOf([]int64{1, 7}, []int64{1, 8})
	got, err := Collect(&MergeJoin{Left: NewScan(left), Right: NewScan(right), LeftKey: 0, RightKey: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("cross product size = %d, want 4", len(got))
	}
	// Outer order preserved: left row 0 pairs come before left row 1.
	if got[0][1] != 0 || got[1][1] != 0 || got[2][1] != 1 || got[3][1] != 1 {
		t.Errorf("outer order not preserved: %v", got)
	}
}

func TestMergeJoinRejectsUnsorted(t *testing.T) {
	// The streaming join verifies sortedness as it reads, so the guard
	// rail fires at the Next that observes the violation (Collect
	// surfaces it), not at Open.
	left := rowsOf([]int64{2}, []int64{1})
	right := rowsOf([]int64{1})
	mj := &MergeJoin{Left: NewScan(left), Right: NewScan(right), LeftKey: 0, RightKey: 0}
	if _, err := Collect(mj); err == nil {
		t.Error("unsorted merge join input must be rejected")
	}
	right2 := rowsOf([]int64{5}, []int64{1})
	mj2 := &MergeJoin{Left: NewScan(rowsOf([]int64{1}, []int64{5})), Right: NewScan(right2), LeftKey: 0, RightKey: 0}
	if _, err := Collect(mj2); err == nil {
		t.Error("unsorted right input must be rejected")
	}
}

func TestHashJoinPreservesProbeOrder(t *testing.T) {
	left := rowsOf([]int64{3}, []int64{1}, []int64{2}, []int64{1})
	right := rowsOf([]int64{1, 10}, []int64{2, 20}, []int64{3, 30})
	got, err := Collect(&HashJoin{Left: NewScan(left), Right: NewScan(right), LeftKey: 0, RightKey: 0})
	if err != nil {
		t.Fatal(err)
	}
	var keys []int64
	for _, r := range got {
		keys = append(keys, r[0])
	}
	if !reflect.DeepEqual(keys, []int64{3, 1, 2, 1}) {
		t.Errorf("probe order not preserved: %v", keys)
	}
}

func TestNestedLoopJoin(t *testing.T) {
	outer := rowsOf([]int64{1}, []int64{2})
	inner := rowsOf([]int64{10}, []int64{20})
	got, err := Collect(&NestedLoopJoin{
		Outer: NewScan(outer), Inner: NewScan(inner),
		Pred: func(o, i Row) bool { return o[0]*10 == i[0] },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := rowsOf([]int64{1, 10}, []int64{2, 20})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v", got)
	}
}

// Property: all three join algorithms produce the same multiset of rows
// on random equi-join inputs.
func TestJoinsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		var left, right []Row
		for i := 0; i < rng.Intn(20); i++ {
			left = append(left, Row{rng.Int63n(6), int64(i)})
		}
		for i := 0; i < rng.Intn(20); i++ {
			right = append(right, Row{rng.Int63n(6), int64(100 + i)})
		}
		sortedLeft := append([]Row{}, left...)
		sort.SliceStable(sortedLeft, func(i, j int) bool { return sortedLeft[i][0] < sortedLeft[j][0] })
		sortedRight := append([]Row{}, right...)
		sort.SliceStable(sortedRight, func(i, j int) bool { return sortedRight[i][0] < sortedRight[j][0] })

		mj, err := Collect(&MergeJoin{Left: NewScan(sortedLeft), Right: NewScan(sortedRight), LeftKey: 0, RightKey: 0})
		if err != nil {
			t.Fatal(err)
		}
		hj, err := Collect(&HashJoin{Left: NewScan(left), Right: NewScan(right), LeftKey: 0, RightKey: 0})
		if err != nil {
			t.Fatal(err)
		}
		nl, err := Collect(&NestedLoopJoin{
			Outer: NewScan(left), Inner: NewScan(right),
			Pred: func(o, i Row) bool { return o[0] == i[0] },
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sameMultiset(mj, hj) || !sameMultiset(hj, nl) {
			t.Fatalf("trial %d: joins disagree: mj=%d hj=%d nl=%d rows", trial, len(mj), len(hj), len(nl))
		}
	}
}

func sameMultiset(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[string]int{}
	key := func(r Row) string {
		out := make([]byte, 0, len(r)*9)
		for _, v := range r {
			for s := 0; s < 64; s += 8 {
				out = append(out, byte(v>>uint(s)))
			}
			out = append(out, ',')
		}
		return string(out)
	}
	for _, r := range a {
		count[key(r)]++
	}
	for _, r := range b {
		count[key(r)]--
		if count[key(r)] < 0 {
			return false
		}
	}
	return true
}

func TestGroupSortedAndHashAgree(t *testing.T) {
	rows := rowsOf(
		[]int64{1, 5}, []int64{1, 7}, []int64{2, 1}, []int64{3, 2}, []int64{3, 2},
	)
	gs, err := Collect(&GroupSorted{In: NewScan(rows), Keys: []int{0}, Aggs: []AggSpec{{Fn: AggSum, Col: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	want := rowsOf([]int64{1, 12}, []int64{2, 1}, []int64{3, 4})
	if !reflect.DeepEqual(gs, want) {
		t.Errorf("GroupSorted = %v, want %v", gs, want)
	}
	gh, err := Collect(&GroupHash{In: NewScan(rows), Keys: []int{0}, Aggs: []AggSpec{{Fn: AggSum, Col: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(gs, gh) {
		t.Errorf("GroupHash = %v", gh)
	}
}

func TestGroupAggs(t *testing.T) {
	rows := rowsOf([]int64{1, 5}, []int64{1, 3}, []int64{2, 9})
	cnt, err := Collect(&GroupSorted{In: NewScan(rows), Keys: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cnt, rowsOf([]int64{1, 2}, []int64{2, 1})) {
		t.Errorf("count = %v", cnt)
	}
	min, err := Collect(&GroupSorted{In: NewScan(rows), Keys: []int{0}, Aggs: []AggSpec{{Fn: AggMin, Col: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(min, rowsOf([]int64{1, 3}, []int64{2, 9})) {
		t.Errorf("min = %v", min)
	}
}

func TestGroupSortedRejectsUnsorted(t *testing.T) {
	rows := rowsOf([]int64{2, 1}, []int64{1, 1})
	it := &GroupSorted{In: NewScan(rows), Keys: []int{0}}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var err error
	for err == nil {
		_, ok, e := it.Next()
		err = e
		if !ok && e == nil {
			break
		}
	}
	if err == nil {
		t.Error("unsorted input must fail sorted grouping")
	}
}

func TestGroupEmptyInput(t *testing.T) {
	gs, err := Collect(&GroupSorted{In: NewScan(nil), Keys: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 0 {
		t.Errorf("empty input produced groups: %v", gs)
	}
	gh, err := Collect(&GroupHash{In: NewScan(nil), Keys: []int{0}, Aggs: []AggSpec{{Fn: AggSum, Col: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(gh) != 0 {
		t.Errorf("empty input produced hash groups: %v", gh)
	}
}

func TestSatisfiesOrdering(t *testing.T) {
	rows := rowsOf([]int64{1, 2}, []int64{1, 3}, []int64{2, 0})
	if !SatisfiesOrdering(rows, []int{0}) {
		t.Error("(col0) should hold")
	}
	if !SatisfiesOrdering(rows, []int{0, 1}) {
		t.Error("(col0, col1) should hold")
	}
	if SatisfiesOrdering(rows, []int{1}) {
		t.Error("(col1) should not hold")
	}
	if !SatisfiesOrdering(nil, []int{0}) {
		t.Error("empty stream satisfies everything")
	}
}

// Property: Sort output always satisfies the sort ordering and preserves
// the row multiset.
func TestQuickSortProperties(t *testing.T) {
	f := func(vals []int64) bool {
		rows := make([]Row, len(vals))
		for i, v := range vals {
			rows[i] = Row{v % 10, int64(i)}
		}
		out, err := Collect(&Sort{In: NewScan(rows), Keys: []int{0}})
		if err != nil {
			return false
		}
		return SatisfiesOrdering(out, []int{0}) && sameMultiset(rows, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Streaming edge cases: every join handles an empty side without
// touching the other side's contract.
func TestJoinsEmptyInputs(t *testing.T) {
	some := rowsOf([]int64{1, 1}, []int64{2, 2})
	cases := []struct {
		name string
		it   func(left, right []Row) Iterator
	}{
		{"merge", func(l, r []Row) Iterator {
			return &MergeJoin{Left: NewScan(l), Right: NewScan(r), LeftKey: 0, RightKey: 0}
		}},
		{"hash", func(l, r []Row) Iterator {
			return &HashJoin{Left: NewScan(l), Right: NewScan(r), LeftKey: 0, RightKey: 0}
		}},
		{"nl", func(l, r []Row) Iterator {
			return &NestedLoopJoin{Outer: NewScan(l), Inner: NewScan(r),
				Pred: func(o, i Row) bool { return o[0] == i[0] }}
		}},
	}
	for _, c := range cases {
		for _, sides := range []struct {
			name        string
			left, right []Row
		}{
			{"left-empty", nil, some},
			{"right-empty", some, nil},
			{"both-empty", nil, nil},
		} {
			got, err := Collect(c.it(sides.left, sides.right))
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, sides.name, err)
			}
			if len(got) != 0 {
				t.Errorf("%s/%s: produced %d rows from empty input", c.name, sides.name, len(got))
			}
		}
	}
}

// TestMergeJoinDuplicateCrossProducts stresses the streaming join's
// group buffering: multiple duplicate-key groups on both sides, cross
// products complete, outer order preserved, and rows outside any group
// skipped.
func TestMergeJoinDuplicateCrossProducts(t *testing.T) {
	left := rowsOf(
		[]int64{1, 0}, []int64{1, 1}, []int64{1, 2}, // key 1 ×3
		[]int64{2, 3},                // key 2, no partner
		[]int64{4, 4}, []int64{4, 5}, // key 4 ×2
		[]int64{7, 6}, // key 7, right exhausted before it
	)
	right := rowsOf(
		[]int64{0, 100},                  // no left partner
		[]int64{1, 101}, []int64{1, 102}, // key 1 ×2
		[]int64{3, 103},
		[]int64{4, 104}, []int64{4, 105}, []int64{4, 106}, // key 4 ×3
	)
	got, err := Collect(&MergeJoin{Left: NewScan(left), Right: NewScan(right), LeftKey: 0, RightKey: 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3*2 + 2*3; len(got) != want {
		t.Fatalf("cross product size = %d, want %d", len(got), want)
	}
	// Outer order: left sequence numbers must be non-decreasing, and
	// within one left row the right rows appear in right order.
	for i := 1; i < len(got); i++ {
		if got[i][1] < got[i-1][1] {
			t.Fatalf("outer order violated at %d: %v", i, got)
		}
		if got[i][1] == got[i-1][1] && got[i][3] <= got[i-1][3] {
			t.Fatalf("inner order violated at %d: %v", i, got)
		}
	}
	// Result agrees with a hash join over the same inputs.
	hj, err := Collect(&HashJoin{Left: NewScan(left), Right: NewScan(right), LeftKey: 0, RightKey: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(got, hj) {
		t.Fatal("streaming merge join disagrees with hash join")
	}
}

// Close without Open must be safe on every operator (the pipeline
// closes everything when a child's Open fails).
func TestCloseWithoutOpen(t *testing.T) {
	rows := rowsOf([]int64{1, 2})
	its := []Iterator{
		NewScan(rows),
		&Filter{In: NewScan(rows), Pred: func(Row) bool { return true }},
		&Sort{In: NewScan(rows), Keys: []int{0}},
		&MergeJoin{Left: NewScan(rows), Right: NewScan(rows), LeftKey: 0, RightKey: 0},
		&HashJoin{Left: NewScan(rows), Right: NewScan(rows), LeftKey: 0, RightKey: 0},
		&NestedLoopJoin{Outer: NewScan(rows), Inner: NewScan(rows), Pred: func(o, i Row) bool { return true }},
		&GroupSorted{In: NewScan(rows), Keys: []int{0}},
		&GroupHash{In: NewScan(rows), Keys: []int{0}},
	}
	for _, it := range its {
		if err := it.Close(); err != nil {
			t.Errorf("%T: Close without Open: %v", it, err)
		}
	}
	// And Open → Close → (re)Open → full drain still works.
	mj := &MergeJoin{Left: NewScan(rows), Right: NewScan(rows), LeftKey: 0, RightKey: 0}
	if err := mj.Open(); err != nil {
		t.Fatal(err)
	}
	if err := mj.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(mj)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("reopened merge join rows = %v", got)
	}
}

// Wide grouping keys (> 4 columns) exercise the exact-compare fallback
// behind the packed tuple keys.
func TestWideGroupingKeys(t *testing.T) {
	var rows []Row
	for i := 0; i < 30; i++ {
		k := int64(i % 3)
		rows = append(rows, Row{k, k + 1, k + 2, k + 3, k + 4, int64(i)})
	}
	keys := []int{0, 1, 2, 3, 4}
	gh, err := Collect(&GroupHash{In: NewScan(rows), Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if len(gh) != 3 {
		t.Fatalf("wide hash groups = %v", gh)
	}
	for _, g := range gh {
		if g[len(g)-1] != 10 {
			t.Fatalf("wide group count = %v", g)
		}
	}
	// Sorted grouping over the same stream sorted on the keys agrees.
	sorted := append([]Row{}, rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	gs, err := Collect(&GroupSorted{In: NewScan(sorted), Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(gs, gh) {
		t.Fatal("wide sorted and hash grouping disagree")
	}
}

// The streaming merge join still validates left-side sortedness beyond
// the last right match (the drain path).
func TestMergeJoinDrainChecksSortedness(t *testing.T) {
	left := rowsOf([]int64{1}, []int64{5}, []int64{3}) // unsorted after matches end
	right := rowsOf([]int64{1})
	if _, err := Collect(&MergeJoin{Left: NewScan(left), Right: NewScan(right), LeftKey: 0, RightKey: 0}); err == nil {
		t.Fatal("unsorted left tail must be rejected")
	}
}

// And the right tail after the left side is exhausted (the mirror
// drain): an unsorted right remainder must still be rejected.
func TestMergeJoinRightTailSortedness(t *testing.T) {
	left := rowsOf([]int64{1})
	right := rowsOf([]int64{1}, []int64{3}, []int64{2}) // unsorted beyond the last match
	if _, err := Collect(&MergeJoin{Left: NewScan(left), Right: NewScan(right), LeftKey: 0, RightKey: 0}); err == nil {
		t.Fatal("unsorted right tail must be rejected")
	}
}
