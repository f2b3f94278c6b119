package exec

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"orderopt/internal/plan"
	"orderopt/internal/query"
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
	got, err := collect(NewScan(rows, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Errorf("collect = %v", got)
	}
	// Re-open yields the same rows.
	got2, err := collect(NewScan(rows, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 2 {
		t.Error("second collect broken")
	}
}

func TestFilter(t *testing.T) {
	rows := rowsOf([]int64{1, 10}, []int64{2, 20}, []int64{3, 30})
	got, err := collect(NewScan(rows, func(r Row) bool { return r[0] >= 2 }))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rowsOf([]int64{2, 20}, []int64{3, 30})) {
		t.Errorf("got %v", got)
	}
}

func TestSortStable(t *testing.T) {
	rows := rowsOf([]int64{2, 1}, []int64{1, 2}, []int64{2, 0}, []int64{1, 1})
	got, err := collect(&Sort{In: NewScan(rows, nil), Keys: []int{0}})
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
	mj := NewJoin(plan.MergeJoin, NewScan(left, nil), NewScan(right, nil), 0, 0, nil)
	got, err := collect(mj)
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
	got, err := collect(NewJoin(plan.MergeJoin, NewScan(left, nil), NewScan(right, nil), 0, 0, nil))
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
	// rail fires at the Next that observes the violation (collect
	// surfaces it), not at Open.
	left := rowsOf([]int64{2}, []int64{1})
	right := rowsOf([]int64{1})
	mj := NewJoin(plan.MergeJoin, NewScan(left, nil), NewScan(right, nil), 0, 0, nil)
	if _, err := collect(mj); err == nil {
		t.Error("unsorted merge join input must be rejected")
	}
	right2 := rowsOf([]int64{5}, []int64{1})
	mj2 := NewJoin(plan.MergeJoin, NewScan(rowsOf([]int64{1}, []int64{5}), nil), NewScan(right2, nil), 0, 0, nil)
	if _, err := collect(mj2); err == nil {
		t.Error("unsorted right input must be rejected")
	}
}

func TestHashJoinPreservesProbeOrder(t *testing.T) {
	left := rowsOf([]int64{3}, []int64{1}, []int64{2}, []int64{1})
	right := rowsOf([]int64{1, 10}, []int64{2, 20}, []int64{3, 30})
	got, err := collect(NewJoin(plan.HashJoin, NewScan(left, nil), NewScan(right, nil), 0, 0, nil))
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
	outer := rowsOf([]int64{1, 10}, []int64{2, 20})
	inner := rowsOf([]int64{10}, []int64{20})
	got, err := collect(NewJoin(plan.NestedLoopJoin, NewScan(outer, nil), NewScan(inner, nil), 1, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := rowsOf([]int64{1, 10, 10}, []int64{2, 20, 20})
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

		mj, err := collect(NewJoin(plan.MergeJoin, NewScan(sortedLeft, nil), NewScan(sortedRight, nil), 0, 0, nil))
		if err != nil {
			t.Fatal(err)
		}
		hj, err := collect(NewJoin(plan.HashJoin, NewScan(left, nil), NewScan(right, nil), 0, 0, nil))
		if err != nil {
			t.Fatal(err)
		}
		nl, err := collect(NewJoin(plan.NestedLoopJoin, NewScan(left, nil), NewScan(right, nil), 0, 0, nil))
		if err != nil {
			t.Fatal(err)
		}
		if !sameMultiset(mj, hj) || !sameMultiset(hj, nl) {
			t.Fatalf("trial %d: joins disagree: mj=%d hj=%d nl=%d rows", trial, len(mj), len(hj), len(nl))
		}
	}
}

// pieceRecorder is a RowSink that keeps each row it is handed, its
// pieces concatenated, and fails a row when a piece below low is not the
// same slice (same first element, same length) as in the row before.
type pieceRecorder struct {
	rows  []Row
	prev  []Row // the row before's pieces, compared by address only
	multi int   // rows handed as more than one piece
	cuts  int
}

func (r *pieceRecorder) Row(pieces []Row, low int) error {
	if len(r.rows) == 0 && low != 0 {
		return fmt.Errorf("the first row says its %d lowest pieces are the row before's", low)
	}
	for j, p := range pieces[:low] {
		if q := r.prev[j]; len(p) != len(q) || len(p) > 0 && &p[0] != &q[0] {
			return fmt.Errorf("row %d: piece %d is below low %d but not the row before's", len(r.rows), j, low)
		}
	}
	r.prev = append(r.prev[:0], pieces...)
	if len(pieces) > 1 {
		r.multi++
	}
	r.rows = append(r.rows, slices.Concat(pieces...))
	return nil
}

func (r *pieceRecorder) Cut() error {
	r.cuts++
	return nil
}

// randomSpine returns a builder of one random spine over seeded rows:
// up to four levels, each a hash join, a merge join over sorted rows, a
// streamed merge join or a nested-loop join, whose right rows give each
// left row anywhere from no match to many. A merge level keys on the
// driving row's first column, which ascends; the others on any column
// of any piece below them.
func randomSpine(rng *rand.Rand) func(life *Life) *spineIter {
	drive := make([]Row, rng.Intn(40))
	var top int64
	for i := range drive {
		top += rng.Int63n(3)
		drive[i] = Row{top, rng.Int63n(8)}
	}
	type level struct {
		op     plan.Op
		stream bool
		key    fusedEq
		rows   []Row
	}
	widths := []int{2}
	levels := make([]level, 1+rng.Intn(4))
	for k := range levels {
		l := &levels[k]
		l.op = []plan.Op{plan.HashJoin, plan.MergeJoin, plan.MergeJoin, plan.NestedLoopJoin}[rng.Intn(4)]
		l.stream = l.op == plan.MergeJoin && rng.Intn(2) == 0
		width := 1 + rng.Intn(3)
		l.key.rcol = int32(rng.Intn(width))
		domain := top + 2
		if l.op != plan.MergeJoin {
			l.key.piece = int32(rng.Intn(len(widths)))
			l.key.col = int32(rng.Intn(widths[l.key.piece]))
			domain = 8
		}
		l.rows = make([]Row, rng.Intn(len(drive)+2))
		for i := range l.rows {
			l.rows[i] = make(Row, width)
			for j := range l.rows[i] {
				l.rows[i][j] = rng.Int63n(8)
			}
			l.rows[i][l.key.rcol] = rng.Int63n(domain)
		}
		if l.op == plan.MergeJoin {
			sort.SliceStable(l.rows, func(i, j int) bool { return l.rows[i][l.key.rcol] < l.rows[j][l.key.rcol] })
		}
		widths = append(widths, width)
	}
	return func(life *Life) *spineIter {
		var sp spine
		for _, l := range levels {
			right := NewScan(l.rows, nil)
			sl := spineLevel{op: l.op, st: &OpStats{}, right: right, key: l.key}
			if l.op == plan.NestedLoopJoin {
				sl.check = []fusedEq{l.key}
			}
			if l.stream {
				sl.stream = &mergeStream{right: right, col: int(l.key.rcol), life: life}
			}
			sp.levels = append(sp.levels, sl)
		}
		return newSpineIter(NewScan(drive, nil), life, sp)
	}
}

// TestSpinePiecesMatchNext: a spine at the root of StreamPieces hands
// its sink each output row as its pieces, and the pieces concatenated
// are the rows Next builds, row for row; every piece below the low it
// reports is the very slice of the row before; and a cut follows every
// chunk rows and the last.
func TestSpinePiecesMatchNext(t *testing.T) {
	const chunk = 7
	multi := 0
	for seed := int64(0); seed < 400; seed++ {
		build := randomSpine(rand.New(rand.NewSource(seed)))
		want, err := collect(build(&Life{}))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		life := &Life{}
		var rec pieceRecorder
		if err := (&Pipeline{Root: build(life), Life: life}).StreamPieces(context.Background(), chunk, &rec); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rec.rows) != len(want) {
			t.Fatalf("seed %d: %d rows as pieces, %d from Next", seed, len(rec.rows), len(want))
		}
		for i := range want {
			if !slices.Equal(rec.rows[i], want[i]) {
				t.Fatalf("seed %d: row %d is %v as pieces, %v from Next", seed, i, rec.rows[i], want[i])
			}
		}
		if n := (len(want) + chunk - 1) / chunk; rec.cuts != n {
			t.Fatalf("seed %d: %d cuts over %d rows, want %d", seed, rec.cuts, len(want), n)
		}
		multi += rec.multi
	}
	if multi == 0 {
		t.Fatal("no row reached the sink as more than one piece")
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
	gs, err := collect(&GroupSorted{In: NewScan(rows, nil), Keys: []int{0}, Aggs: []AggSpec{{Fn: query.AggSum, Col: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	want := rowsOf([]int64{1, 12}, []int64{2, 1}, []int64{3, 4})
	if !reflect.DeepEqual(gs, want) {
		t.Errorf("GroupSorted = %v, want %v", gs, want)
	}
	gh, err := collect(&GroupHash{In: NewScan(rows, nil), Keys: []int{0}, Aggs: []AggSpec{{Fn: query.AggSum, Col: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(gs, gh) {
		t.Errorf("GroupHash = %v", gh)
	}
}

func TestGroupAggs(t *testing.T) {
	rows := rowsOf([]int64{1, 5}, []int64{1, 3}, []int64{2, 9})
	cnt, err := collect(&GroupSorted{In: NewScan(rows, nil), Keys: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cnt, rowsOf([]int64{1, 2}, []int64{2, 1})) {
		t.Errorf("count = %v", cnt)
	}
	min, err := collect(&GroupSorted{In: NewScan(rows, nil), Keys: []int{0}, Aggs: []AggSpec{{Fn: query.AggMin, Col: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(min, rowsOf([]int64{1, 3}, []int64{2, 9})) {
		t.Errorf("min = %v", min)
	}
}

func TestGroupSortedRejectsUnsorted(t *testing.T) {
	rows := rowsOf([]int64{2, 1}, []int64{1, 1})
	it := &GroupSorted{In: NewScan(rows, nil), Keys: []int{0}}
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
	gs, err := collect(&GroupSorted{In: NewScan(nil, nil), Keys: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 0 {
		t.Errorf("empty input produced groups: %v", gs)
	}
	gh, err := collect(&GroupHash{In: NewScan(nil, nil), Keys: []int{0}, Aggs: []AggSpec{{Fn: query.AggSum, Col: 0}}})
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
		out, err := collect(&Sort{In: NewScan(rows, nil), Keys: []int{0}})
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
			return NewJoin(plan.MergeJoin, NewScan(l, nil), NewScan(r, nil), 0, 0, nil)
		}},
		{"hash", func(l, r []Row) Iterator {
			return NewJoin(plan.HashJoin, NewScan(l, nil), NewScan(r, nil), 0, 0, nil)
		}},
		{"nl", func(l, r []Row) Iterator {
			return NewJoin(plan.NestedLoopJoin, NewScan(l, nil), NewScan(r, nil), 0, 0, nil)
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
			got, err := collect(c.it(sides.left, sides.right))
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
	got, err := collect(NewJoin(plan.MergeJoin, NewScan(left, nil), NewScan(right, nil), 0, 0, nil))
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
	hj, err := collect(NewJoin(plan.HashJoin, NewScan(left, nil), NewScan(right, nil), 0, 0, nil))
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
		NewScan(rows, nil),
		NewScan(rows, func(Row) bool { return true }),
		&Sort{In: NewScan(rows, nil), Keys: []int{0}},
		NewJoin(plan.MergeJoin, NewScan(rows, nil), NewScan(rows, nil), 0, 0, nil),
		NewJoin(plan.HashJoin, NewScan(rows, nil), NewScan(rows, nil), 0, 0, nil),
		NewJoin(plan.NestedLoopJoin, NewScan(rows, nil), NewScan(rows, nil), 0, 0, nil),
		&GroupSorted{In: NewScan(rows, nil), Keys: []int{0}},
		&GroupHash{In: NewScan(rows, nil), Keys: []int{0}},
	}
	for _, it := range its {
		if err := it.Close(); err != nil {
			t.Errorf("%T: Close without Open: %v", it, err)
		}
	}
	// And Open → Close → (re)Open → full drain still works.
	mj := NewJoin(plan.MergeJoin, NewScan(rows, nil), NewScan(rows, nil), 0, 0, nil)
	if err := mj.Open(); err != nil {
		t.Fatal(err)
	}
	if err := mj.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := collect(mj)
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
	gh, err := collect(&GroupHash{In: NewScan(rows, nil), Keys: keys})
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
	gs, err := collect(&GroupSorted{In: NewScan(sorted, nil), Keys: keys})
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
	if _, err := collect(NewJoin(plan.MergeJoin, NewScan(left, nil), NewScan(right, nil), 0, 0, nil)); err == nil {
		t.Fatal("unsorted left tail must be rejected")
	}
}

// And the right tail after the left side is exhausted (the mirror
// drain): an unsorted right remainder must still be rejected.
func TestMergeJoinRightTailSortedness(t *testing.T) {
	left := rowsOf([]int64{1})
	right := rowsOf([]int64{1}, []int64{3}, []int64{2}) // unsorted beyond the last match
	if _, err := collect(NewJoin(plan.MergeJoin, NewScan(left, nil), NewScan(right, nil), 0, 0, nil)); err == nil {
		t.Fatal("unsorted right tail must be rejected")
	}
}
