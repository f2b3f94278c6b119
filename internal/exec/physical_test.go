package exec

import (
	"math/rand"
	"testing"

	"orderopt/internal/core"
	"orderopt/internal/order"
	"orderopt/internal/plan"
)

// TestFrameworkClaimsHoldPhysically is the end-to-end soundness check:
// build real tuple streams whose data enforces the functional
// dependencies the framework is told about, run them through sort /
// filter / merge-join pipelines, and verify that EVERY logical ordering
// the DFSM claims available is physically satisfied by the stream.
//
// Table T(a, b, x, c) with b = f(a) enforced in the data (FD a → b),
// filter x = 5 (constant FD ∅ → x), and a merge join T.a = U.k
// (equation a = k). Interesting orders: all singles and pairs over
// {a, b, x, k}.
func TestFrameworkClaimsHoldPhysically(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))

		b := core.NewBuilder()
		attrNames := []string{"a", "b", "x", "k"}
		attrs := make(map[string]order.Attr, len(attrNames))
		for _, n := range attrNames {
			attrs[n] = b.Attr(n)
		}
		// Column layout of the joined stream: T.a=0 T.b=1 T.x=2 T.c=3,
		// U.k=4 U.y=5.
		colOf := map[order.Attr]int{
			attrs["a"]: 0, attrs["b"]: 1, attrs["x"]: 2, attrs["k"]: 4,
		}

		var interesting []order.ID
		addOrder := func(names ...string) order.ID {
			seq := make([]order.Attr, len(names))
			for i, n := range names {
				seq[i] = attrs[n]
			}
			o := b.Ordering(seq...)
			return o
		}
		for _, n := range attrNames {
			o := addOrder(n)
			b.AddProduced(o)
			interesting = append(interesting, o)
		}
		for _, x := range attrNames {
			for _, y := range attrNames {
				if x == y {
					continue
				}
				o := addOrder(x, y)
				b.AddTested(o)
				interesting = append(interesting, o)
			}
		}

		fdAB := b.AddFDSet(order.NewFDSet(order.NewFD(attrs["b"], attrs["a"])))
		fdX := b.AddFDSet(order.NewFDSet(order.NewConstant(attrs["x"])))
		fdEq := b.AddFDSet(order.NewFDSet(order.NewEquation(attrs["a"], attrs["k"])))

		opt := core.DefaultOptions()
		opt.TrackEmptyOrdering = true
		fw, err := b.Prepare(opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Data: b = f(a) enforces a → b.
		f := func(a int64) int64 { return (a*7 + 3) % 13 }
		var tRows []Row
		for i := 0; i < 60; i++ {
			a := rng.Int63n(15)
			tRows = append(tRows, Row{a, f(a), rng.Int63n(3), rng.Int63n(100)})
		}
		var uRows []Row
		for i := 0; i < 20; i++ {
			uRows = append(uRows, Row{rng.Int63n(15), rng.Int63n(50)})
		}

		check := func(stage string, state core.State, rows []Row) {
			t.Helper()
			for _, o := range interesting {
				if !fw.Contains(state, o) {
					continue
				}
				seq := b.Interner().Seq(o)
				cols := make([]int, len(seq))
				usable := true
				for i, a := range seq {
					c, ok := colOf[a]
					if !ok || (len(rows) > 0 && c >= len(rows[0])) {
						usable = false
						break
					}
					cols[i] = c
				}
				if !usable {
					continue // ordering references join columns before the join
				}
				if !SatisfiesOrdering(rows, cols) {
					t.Fatalf("seed %d, %s: framework claims %s but the stream violates it",
						seed, stage, b.Interner().Format(b.Registry(), o))
				}
			}
		}

		// Stage 1: sort T by (a).
		sorted, err := collect(&Sort{In: NewScan(tRows, nil), Keys: []int{0}})
		if err != nil {
			t.Fatal(err)
		}
		state := fw.Produce(addOrder("a"))
		check("sort(a)", state, sorted)

		// Stage 2: the operator introducing a → b (data-enforced).
		state = fw.Infer(state, fdAB)
		check("infer a→b", state, sorted)

		// Stage 3: filter x = 1 (constant FD).
		filtered, err := collect(NewScan(sorted, func(r Row) bool { return r[2] == 1 }))
		if err != nil {
			t.Fatal(err)
		}
		state = fw.Infer(state, fdX)
		check("filter x=const", state, filtered)

		// Stage 4: merge join T.a = U.k (equation), outer order preserved.
		uSorted, err := collect(&Sort{In: NewScan(uRows, nil), Keys: []int{0}})
		if err != nil {
			t.Fatal(err)
		}
		joined, err := collect(NewJoin(plan.MergeJoin, NewScan(filtered, nil), NewScan(uSorted, nil), 0, 0, nil))
		if err != nil {
			t.Fatal(err)
		}
		state = fw.Infer(state, fdEq)
		check("merge join a=k", state, joined)

		// Stage 5: a fresh table scan (empty ordering) plus the filter:
		// the constant column ordering must hold physically.
		unsorted, err := collect(NewScan(tRows, func(r Row) bool { return r[2] == 1 }))
		if err != nil {
			t.Fatal(err)
		}
		scanState := fw.Infer(fw.Produce(order.EmptyID), fdX)
		check("scan+filter", scanState, unsorted)
	}
}

// TestSortMaskClaimsHoldPhysically: sorting inside a pipeline where FDs
// already hold must produce states whose claims are physically true.
func TestSortMaskClaimsHoldPhysically(t *testing.T) {
	b := core.NewBuilder()
	a := b.Attr("a")
	bb := b.Attr("b")
	oA := b.Ordering(a)
	oAB := b.Ordering(a, bb)
	oB := b.Ordering(bb)
	b.AddProduced(oA)
	b.AddTested(oAB)
	b.AddTested(oB)
	h := b.AddFDSet(order.NewFDSet(order.NewFD(bb, a)))
	fw, err := b.Prepare(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	f := func(x int64) int64 { return (x * 5) % 7 }
	var rows []Row
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		x := rng.Int63n(9)
		rows = append(rows, Row{x, f(x)})
	}
	// The FD a→b held before the sort; sorting to (a) must claim (a,b).
	state := fw.Sort(oA, []core.FDHandle{h})
	if !fw.Contains(state, oAB) {
		t.Fatal("Sort with held FD must claim (a, b)")
	}
	sorted, err := collect(&Sort{In: NewScan(rows, nil), Keys: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if !SatisfiesOrdering(sorted, []int{0, 1}) {
		t.Fatal("physical stream violates (a, b) — data generator broken")
	}
}
