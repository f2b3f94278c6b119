package plan

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		TableScan: "TableScan", IndexScan: "IndexScan", Sort: "Sort",
		MergeJoin: "MergeJoin", HashJoin: "HashJoin", NestedLoopJoin: "NestedLoopJoin",
		GroupSorted: "GroupSorted", GroupHash: "GroupHash", Op(99): "Op(99)",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

func TestNodeStringAndOps(t *testing.T) {
	n := &Node{
		Op:   MergeJoin,
		Cost: 100, Card: 10, Edge: 0,
		Left:  &Node{Op: Sort, Cost: 50, Card: 10, Left: &Node{Op: TableScan, Rel: 0, Cost: 10, Card: 10}},
		Right: &Node{Op: IndexScan, Rel: 1, Index: 0, Cost: 20, Card: 5},
	}
	s := n.String()
	for _, want := range []string{"MergeJoin", "Sort", "TableScan", "IndexScan", "rel=1 index=0", "edge=0"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
	ops := n.Ops()
	if ops[MergeJoin] != 1 || ops[Sort] != 1 || ops[TableScan] != 1 || ops[IndexScan] != 1 {
		t.Errorf("Ops = %v", ops)
	}
}

// TestArenaResetReusesChunks: after Reset, the arena hands out zeroed
// nodes from its retained chunks without growing.
func TestArenaResetReusesChunks(t *testing.T) {
	var a Arena
	const n = 500
	first := make([]*Node, n)
	for i := range first {
		first[i] = a.New()
		first[i].Rel = i + 1 // dirty the slot
	}
	chunksBefore := len(a.chunks)
	a.Reset()
	for i := 0; i < n; i++ {
		nd := a.New()
		if *nd != (Node{}) {
			t.Fatalf("node %d not zeroed after Reset: %+v", i, *nd)
		}
		nd.Rel = -1
	}
	if len(a.chunks) != chunksBefore {
		t.Errorf("arena grew across Reset: %d chunks, was %d", len(a.chunks), chunksBefore)
	}
}

// TestCloneDetachesAndPreservesSharing: Clone survives arena reuse and
// keeps shared subplans shared.
func TestCloneDetachesAndPreservesSharing(t *testing.T) {
	var a Arena
	scan := a.New()
	*scan = Node{Op: TableScan, Rel: 3, Cost: 10, Card: 100}
	left := a.New()
	*left = Node{Op: Sort, Left: scan, Cost: 20, Card: 100}
	root := a.New()
	*root = Node{Op: MergeJoin, Left: left, Right: scan, Cost: 50, Card: 40}

	clone := root.Clone()
	want := root.String()
	if clone.String() != want {
		t.Fatalf("clone differs:\n%s\nvs\n%s", clone, root)
	}
	if clone.Left.Left != clone.Right {
		t.Errorf("shared subplan was duplicated by Clone")
	}
	if clone == root || clone.Left == left || clone.Right == scan {
		t.Errorf("clone still references arena nodes")
	}

	// Trash the arena: the clone must be unaffected.
	a.Reset()
	for i := 0; i < 100; i++ {
		n := a.New()
		*n = Node{Op: GroupHash, Cost: 999, Card: 999}
	}
	if clone.String() != want {
		t.Errorf("clone mutated by arena reuse:\n%s\nvs\n%s", clone, want)
	}

	if (*Node)(nil).Clone() != nil {
		t.Errorf("nil Clone must be nil")
	}
}

func TestCostsPositiveAndMonotone(t *testing.T) {
	if ScanCost(100) <= 0 || SortCost(100) <= 0 {
		t.Error("costs must be positive")
	}
	if SortCost(1000) <= SortCost(100) {
		t.Error("SortCost must grow with cardinality")
	}
	if SortCost(1) <= 0 {
		t.Error("tiny sorts still cost something")
	}
	if MergeJoinCost(100, 100, 10) >= HashJoinCost(100, 100, 10) {
		t.Error("merging sorted inputs must be cheaper than hashing")
	}
	if NestedLoopCost(1000, 1000, 10) <= HashJoinCost(1000, 1000, 10) {
		t.Error("nested loops must lose on large inputs")
	}
	if NestedLoopCost(2, 2, 1) >= HashJoinCost(2, 2, 1) {
		t.Error("nested loops should win on tiny inputs")
	}
	if GroupCost(100, true) >= GroupCost(100, false) {
		t.Error("sorted grouping must be cheaper than hashing")
	}
	if IndexScanCost(100, true) >= IndexScanCost(100, false) {
		t.Error("clustered index scans must be cheaper")
	}
	if IndexScanCost(100, true) <= ScanCost(100) {
		t.Error("index scans cost more than sequential scans")
	}
}

func TestLog2Approximation(t *testing.T) {
	for _, x := range []float64{2, 4, 8, 1024, 3, 1000, 6001215} {
		got := log2(x)
		want := math.Log2(x)
		if math.Abs(got-want) > 0.09*want+0.1 {
			t.Errorf("log2(%v) = %v, want ≈ %v", x, got, want)
		}
	}
}

// halvingLog2 is the loop log2 replaced: halve down to [1, 2), counting
// the halvings, then interpolate on the mantissa.
func halvingLog2(x float64) float64 {
	n := 0.0
	for x >= 2 {
		x /= 2
		n++
	}
	return n + (x - 1)
}

// TestLog2MatchesHalving: halving a float64 ≥ 2 is exact, so the Frexp
// form must agree with the loop to the bit — on every power of two from
// 2^1 to 2^60, on each one's neighbours, and on seeded values from
// below 1 to 2^60.
func TestLog2MatchesHalving(t *testing.T) {
	check := func(x float64) {
		if got, want := log2(x), halvingLog2(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("log2(%v) = %v, the halving loop gives %v", x, got, want)
		}
	}
	for e := 1; e <= 60; e++ {
		x := math.Ldexp(1, e)
		check(x)
		check(math.Nextafter(x, 0))
		check(math.Nextafter(x, math.Inf(1)))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		check(math.Ldexp(rng.Float64()+0.5, rng.Intn(61)))
	}
}

// TestSortCostInf: an infinite cardinality prices an infinite sort. The
// halving loop never returned on it (+Inf / 2 is +Inf).
func TestSortCostInf(t *testing.T) {
	if got := SortCost(math.Inf(1)); !math.IsInf(got, 1) {
		t.Errorf("SortCost(+Inf) = %v, want +Inf", got)
	}
}

func TestQuickSortCostMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := float64(a%1000000)+2, float64(b%1000000)+2
		if x > y {
			x, y = y, x
		}
		return SortCost(x) <= SortCost(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLimitedCostKeepsHashBuildBlocking(t *testing.T) {
	// A limit discounts the streaming part of a hash join; the build
	// side runs in full before the first row and stays fully charged.
	n := &Node{Op: HashJoin, Card: 1000, Left: &Node{Op: TableScan, Card: 1000}, Right: &Node{Op: TableScan, Card: 100}}
	n.Left.Cost = ScanCost(1000)
	n.Right.Cost = ScanCost(100)
	n.Cost = n.Left.Cost + n.Right.Cost + HashJoinCost(1000, 100, 1000)
	lim := LimitedCost(n, 10)
	if min := n.Right.Cost + 100*CHashBuild; lim < min {
		t.Errorf("limited cost %v below the blocking build floor %v", lim, min)
	}
	if lim >= n.Cost {
		t.Errorf("limited cost %v not discounted from full cost %v", lim, n.Cost)
	}
}
