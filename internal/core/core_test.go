package core

import (
	"math/rand"
	"testing"

	"orderopt/internal/nfsm"
	"orderopt/internal/order"
)

// runningFramework builds the §5 running example.
func runningFramework(t *testing.T, opt Options) (*Framework, *Builder) {
	t.Helper()
	b := NewBuilder()
	battr := b.Attr("b")
	c := b.Attr("c")
	d := b.Attr("d")
	b.AddProduced(b.OrderingOf("b"))
	b.AddProduced(b.OrderingOf("a", "b"))
	b.AddTested(b.OrderingOf("a", "b", "c"))
	b.AddFDSet(order.NewFDSet(order.NewFD(c, battr)))
	b.AddFDSet(order.NewFDSet(order.NewFD(d, battr)))
	f, err := b.Prepare(opt)
	if err != nil {
		t.Fatal(err)
	}
	return f, b
}

func TestADTWalkthrough(t *testing.T) {
	f, b := runningFramework(t, DefaultOptions())

	s := f.Produce(b.OrderingOf("a", "b"))
	if s == StartState {
		t.Fatal("producing (a,b) must leave the start state")
	}
	if !f.Contains(s, b.OrderingOf("a")) || !f.Contains(s, b.OrderingOf("a", "b")) {
		t.Error("state after producing (a,b) must contain (a) and (a,b)")
	}
	if f.Contains(s, b.OrderingOf("a", "b", "c")) {
		t.Error("(a,b,c) must not be contained yet")
	}

	s2 := f.Infer(s, 0) // operator inducing b → c
	if !f.Contains(s2, b.OrderingOf("a", "b", "c")) {
		t.Error("(a,b,c) must be contained after b → c")
	}

	// The pruned FD set {b→d} is the identity.
	if got := f.Infer(s2, 1); got != s2 {
		t.Errorf("pruned FD handle must be identity: %d != %d", got, s2)
	}
}

func TestProduceUnknownOrdering(t *testing.T) {
	f, b := runningFramework(t, DefaultOptions())
	if got := f.Produce(b.OrderingOf("q")); got != StartState {
		t.Errorf("Produce(unknown) = %d, want StartState", got)
	}
	if got := f.Produce(b.OrderingOf("a", "b", "c")); got != StartState {
		t.Errorf("Produce(tested-only) = %d, want StartState", got)
	}
}

func TestContainsAtStart(t *testing.T) {
	f, b := runningFramework(t, DefaultOptions())
	for _, names := range [][]string{{"a"}, {"b"}, {"a", "b"}, {"a", "b", "c"}} {
		if f.Contains(StartState, b.OrderingOf(names...)) {
			t.Errorf("start state must contain nothing, got %v", names)
		}
	}
}

func TestSortReplaysHeldFDs(t *testing.T) {
	f, b := runningFramework(t, DefaultOptions())
	// A sort to (a,b) in a plan where the b→c operator already ran must
	// immediately satisfy (a,b,c) (§5.6: follow the produced edge, then
	// the edges of the FD sets that currently hold).
	s := f.Sort(b.OrderingOf("a", "b"), []FDHandle{0})
	if !f.Contains(s, b.OrderingOf("a", "b", "c")) {
		t.Error("Sort with held b→c must contain (a,b,c)")
	}
	s2 := f.SortMask(b.OrderingOf("a", "b"), 1<<0)
	if s2 != s {
		t.Errorf("SortMask disagrees with Sort: %d vs %d", s2, s)
	}
	// Without held FDs the sort state only has the prefixes.
	s3 := f.Sort(b.OrderingOf("a", "b"), nil)
	if f.Contains(s3, b.OrderingOf("a", "b", "c")) {
		t.Error("Sort without held FDs must not contain (a,b,c)")
	}
}

func TestSubsetOfDominance(t *testing.T) {
	f, b := runningFramework(t, DefaultOptions())
	s2 := f.Produce(b.OrderingOf("a", "b"))
	s3 := f.Infer(s2, 0)
	if !f.SubsetOf(s2, s3) || f.SubsetOf(s3, s2) {
		t.Error("dominance order between states 2 and 3 wrong")
	}
	if !f.SubsetOf(StartState, s2) {
		t.Error("start state must be dominated by everything")
	}
}

// TestColumnFastPath: Contains resolves an ordering through the dense
// order-ID index built at Prepare; an ordering interned afterwards lies
// past that index and is never contained.
func TestColumnFastPath(t *testing.T) {
	f, b := runningFramework(t, DefaultOptions())
	s := f.Infer(f.Produce(b.OrderingOf("a", "b")), 0)
	if !f.Contains(s, b.OrderingOf("a", "b", "c")) {
		t.Error("(a,b,c) must be available after b→c")
	}
	if f.Contains(f.Produce(b.OrderingOf("a", "b")), b.OrderingOf("a", "b", "c")) {
		t.Error("(a,b,c) must not be available before b→c")
	}
	late := b.OrderingOf("nope")
	if int(late) < f.Interner().Count()-1 {
		t.Fatalf("ordering interned after Prepare has ID %d, not the newest", late)
	}
	for st := StartState; int(st) < f.DFSM().NumStates(); st++ {
		if f.Contains(st, late) {
			t.Errorf("state %d contains an ordering interned after Prepare", st)
		}
	}
}

func TestStats(t *testing.T) {
	f, _ := runningFramework(t, DefaultOptions())
	st := f.Stats()
	if st.NFSMStates != 5 { // q0, (a), (b), (a,b), (a,b,c)
		t.Errorf("NFSMStates = %d, want 5", st.NFSMStates)
	}
	if st.DFSMStates != 4 {
		t.Errorf("DFSMStates = %d, want 4", st.DFSMStates)
	}
	if st.FDSymbols != 1 || st.ProducedSymbols != 2 {
		t.Errorf("symbols = %d FD / %d produced, want 1/2", st.FDSymbols, st.ProducedSymbols)
	}
	if st.PrunedFDs != 1 {
		t.Errorf("PrunedFDs = %d, want 1", st.PrunedFDs)
	}
	if st.PrecomputedBytes <= 0 || st.PrepTime <= 0 {
		t.Error("PrecomputedBytes and PrepTime must be positive")
	}
	if f.NumFDHandles() != 2 {
		t.Errorf("NumFDHandles = %d, want 2", f.NumFDHandles())
	}
}

func TestPruningReducesSizes(t *testing.T) {
	fPruned, _ := runningFramework(t, DefaultOptions())
	fFull, _ := runningFramework(t, Options{Pruning: nfsm.NoPruning()})
	if fPruned.Stats().NFSMStates >= fFull.Stats().NFSMStates {
		t.Errorf("pruned NFSM (%d) not smaller than unpruned (%d)",
			fPruned.Stats().NFSMStates, fFull.Stats().NFSMStates)
	}
	if fPruned.Stats().PrecomputedBytes >= fFull.Stats().PrecomputedBytes {
		t.Errorf("pruned tables (%d B) not smaller than unpruned (%d B)",
			fPruned.Stats().PrecomputedBytes, fFull.Stats().PrecomputedBytes)
	}
}

func TestPrepareErrors(t *testing.T) {
	b := NewBuilder()
	if _, err := b.Prepare(DefaultOptions()); err == nil {
		t.Error("Prepare without interesting orders must fail")
	}
	b2 := NewBuilder()
	b2.AddProduced(b2.OrderingOf("a"))
	b2.AddProduced(b2.OrderingOf("b"))
	b2.AddFDSet(order.NewFDSet(order.NewEquation(b2.Attr("a"), b2.Attr("b"))))
	opt := DefaultOptions()
	opt.MaxDFSMStates = 1
	if _, err := b2.Prepare(opt); err == nil {
		t.Error("Prepare with MaxDFSMStates=1 must fail")
	}
}

func TestAccessors(t *testing.T) {
	f, b := runningFramework(t, DefaultOptions())
	if f.Registry() != b.Registry() || f.Interner() != b.Interner() {
		t.Error("framework must share the builder's spaces")
	}
	if f.NFSM() == nil || f.DFSM() == nil {
		t.Error("NFSM/DFSM accessors must be non-nil")
	}
}

// With TrackEmptyOrdering, a table scan (producing the empty ordering)
// followed by a selection x = const must satisfy the ordering (x) — the
// stream is trivially sorted on a constant column.
func TestEmptyOrderingWithConstants(t *testing.T) {
	b := NewBuilder()
	x := b.Attr("x")
	b.AddProduced(b.OrderingOf("x"))
	b.AddProduced(b.OrderingOf("a", "x"))
	h := b.AddFDSet(order.NewFDSet(order.NewConstant(x)))
	opt := DefaultOptions()
	opt.TrackEmptyOrdering = true
	f, err := b.Prepare(opt)
	if err != nil {
		t.Fatal(err)
	}
	scan := f.Produce(order.EmptyID)
	if scan == StartState {
		t.Fatal("empty ordering must be producible with TrackEmptyOrdering")
	}
	if f.Contains(scan, b.OrderingOf("x")) {
		t.Fatal("(x) must not hold before the selection")
	}
	if !f.Contains(scan, order.EmptyID) {
		t.Fatal("the empty ordering is trivially satisfied")
	}
	after := f.Infer(scan, h)
	if !f.Contains(after, b.OrderingOf("x")) {
		t.Fatal("(x) must hold after the selection x = const")
	}
	// Even the start state satisfies the empty ordering.
	if !f.Contains(StartState, order.EmptyID) {
		t.Fatal("empty ordering must hold in the start state")
	}
}

// Property: for random inputs, the prepared framework (full pruning) must
// agree with the naive unbounded closure oracle on every (produced order,
// FD-set sequence, interesting order) combination. This checks the whole
// pipeline — derivation rules, pruning heuristics, powerset construction
// and precomputation — against the paper's §2 semantics.
func TestRandomizedAgainstNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	attrNames := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 120; trial++ {
		b := NewBuilder()
		attrs := make([]order.Attr, len(attrNames))
		for i, n := range attrNames {
			attrs[i] = b.Attr(n)
		}
		// Random interesting orders (1–3 attrs, no duplicates).
		var interesting []order.ID
		nOrders := 2 + rng.Intn(3)
		for i := 0; i < nOrders; i++ {
			perm := rng.Perm(len(attrs))
			k := 1 + rng.Intn(3)
			seq := make([]order.Attr, 0, k)
			for _, p := range perm[:k] {
				seq = append(seq, attrs[p])
			}
			o := b.Ordering(seq...)
			interesting = append(interesting, o)
			if rng.Intn(3) == 0 {
				b.AddTested(o)
			} else {
				b.AddProduced(o)
			}
		}
		// Random FD sets.
		nSets := 1 + rng.Intn(3)
		handles := make([]FDHandle, 0, nSets)
		var allFDs [][]order.FD
		for i := 0; i < nSets; i++ {
			var fds []order.FD
			for j := 0; j < 1+rng.Intn(2); j++ {
				x := attrs[rng.Intn(len(attrs))]
				y := attrs[rng.Intn(len(attrs))]
				switch rng.Intn(3) {
				case 0:
					if x != y {
						fds = append(fds, order.NewFD(y, x))
					}
				case 1:
					if x != y {
						fds = append(fds, order.NewEquation(x, y))
					}
				case 2:
					fds = append(fds, order.NewConstant(x))
				}
			}
			if len(fds) == 0 {
				fds = append(fds, order.NewConstant(attrs[0]))
			}
			handles = append(handles, b.AddFDSet(order.NewFDSet(fds...)))
			allFDs = append(allFDs, fds)
		}
		f, err := b.Prepare(DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// Walk a random FD application path from each produced order and
		// compare Contains against the sequential closure oracle (the
		// exact ADT semantics of §2: O' = Ω(O, F) per operator).
		for _, start := range interesting {
			if f.Produce(start) == StartState {
				continue // tested-only
			}
			s := f.Produce(start)
			var applied []order.FDSet
			steps := rng.Intn(3)
			for k := 0; k < steps; k++ {
				i := rng.Intn(len(handles))
				s = f.Infer(s, handles[i])
				applied = append(applied, order.NewFDSet(allFDs[i]...))
			}
			for _, io := range interesting {
				got := f.Contains(s, io)
				want := order.NaiveSequentialContains(b.Interner(), start, applied, io, 200000)
				if got != want {
					t.Fatalf("trial %d: Contains(%s from %s after %d FD sets) = %v, oracle %v",
						trial,
						b.Interner().Format(b.Registry(), io),
						b.Interner().Format(b.Registry(), start),
						steps, got, want)
				}
			}
		}
	}
}
