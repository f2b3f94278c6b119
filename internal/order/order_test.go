package order

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// testSpace bundles the fixtures most tests need.
type testSpace struct {
	reg *Registry
	in  *Interner
}

func newSpace() *testSpace {
	return &testSpace{reg: NewRegistry(), in: NewInterner()}
}

func (s *testSpace) ord(names ...string) ID {
	return s.in.Intern(s.reg.Attrs(names...))
}

func (s *testSpace) format(ids []ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = s.in.Format(s.reg, id)
	}
	return out
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	a := reg.Attr("a")
	b := reg.Attr("b")
	if a == b {
		t.Fatal("distinct names share an id")
	}
	if got := reg.Attr("a"); got != a {
		t.Fatal("repeated Attr not stable")
	}
	if reg.Name(a) != "a" || reg.Len() != 2 {
		t.Fatal("Name/Len broken")
	}
	if got := reg.FormatSeq([]Attr{a, b}); got != "(a, b)" {
		t.Fatalf("FormatSeq = %q", got)
	}
}

func TestRegistryNamePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Name(99) did not panic")
		}
	}()
	NewRegistry().Name(99)
}

func TestInternerBasics(t *testing.T) {
	s := newSpace()
	ab := s.ord("a", "b")
	ab2 := s.ord("a", "b")
	if ab != ab2 {
		t.Fatal("interning not stable")
	}
	ba := s.ord("b", "a")
	if ab == ba {
		t.Fatal("(a,b) and (b,a) share an id")
	}
	if len(s.in.Seq(ab)) != 2 || s.in.Count() < 3 {
		t.Fatal("Seq/Count broken")
	}
}

func TestInternDuplicatePanics(t *testing.T) {
	s := newSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("Intern with duplicate attr did not panic")
		}
	}()
	a := s.reg.Attr("a")
	s.in.Intern([]Attr{a, a})
}

func TestPrefixes(t *testing.T) {
	s := newSpace()
	abc := s.ord("a", "b", "c")
	if got := s.format(s.in.Prefixes(abc)); !reflect.DeepEqual(got, []string{"(a)", "(a, b)"}) {
		t.Fatalf("Prefixes = %v", got)
	}
	if s.in.Prefix(s.ord("a")) != EmptyID {
		t.Fatal("prefix of length-1 ordering should be empty")
	}
	if !s.in.IsPrefixOf(s.ord("a", "b"), abc) {
		t.Fatal("(a,b) should be prefix of (a,b,c)")
	}
	if s.in.IsPrefixOf(abc, s.ord("a", "b")) {
		t.Fatal("(a,b,c) is not a prefix of (a,b)")
	}
	if s.in.IsPrefixOf(s.ord("b"), abc) {
		t.Fatal("(b) is not a prefix of (a,b,c)")
	}
	if !s.in.IsPrefixOf(abc, abc) {
		t.Fatal("prefix relation should be reflexive")
	}
}

func TestFDConstructorsAndKeys(t *testing.T) {
	s := newSpace()
	a, b, c := s.reg.Attr("a"), s.reg.Attr("b"), s.reg.Attr("c")
	fd := NewFD(c, a, b)
	if fd.Kind != KindFD || fd.Dependent != c || fd.Determinant.Len() != 2 {
		t.Fatalf("NewFD broken: %+v", fd)
	}
	if got := fd.Format(s.reg); got != "{a, b} → c" {
		t.Fatalf("Format = %q", got)
	}
	eq := NewEquation(a, b)
	eq2 := NewEquation(b, a)
	if eq.Key() != eq2.Key() {
		t.Fatal("equation keys must be symmetric")
	}
	if got := eq.Format(s.reg); got != "a = b" {
		t.Fatalf("Format = %q", got)
	}
	cst := NewConstant(a)
	if got := cst.Format(s.reg); got != "∅ → a" {
		t.Fatalf("Format = %q", got)
	}
	if fd.Key() == eq.Key() || eq.Key() == cst.Key() {
		t.Fatal("keys collide across kinds")
	}
	if got, want := fd.Attrs().String(), fmt.Sprintf("{%d, %d, %d}", a, b, c); got != want {
		t.Fatalf("Attrs = %s, want %s", got, want)
	}
}

func TestFDSetDedup(t *testing.T) {
	s := newSpace()
	a, b := s.reg.Attr("a"), s.reg.Attr("b")
	set := NewFDSet(NewEquation(a, b), NewEquation(b, a), NewFD(b, a))
	if len(set.FDs) != 2 {
		t.Fatalf("dedup failed: %d FDs", len(set.FDs))
	}
	same := NewFDSet(NewFD(b, a), NewEquation(a, b))
	if set.Key() != same.Key() {
		t.Fatal("FDSet.Key must be order-insensitive")
	}
}

func TestNormalize(t *testing.T) {
	s := newSpace()
	a, b, c := s.reg.Attr("a"), s.reg.Attr("b"), s.reg.Attr("c")
	fds := Normalize([]Attr{a}, []Attr{a, b, c})
	if len(fds) != 2 {
		t.Fatalf("Normalize kept trivial dependent: %v", fds)
	}
	for _, fd := range fds {
		if fd.Dependent == a {
			t.Fatal("trivial a → a kept")
		}
	}
}

// --- derivation rules (§2) ---

func closureStrings(s *testSpace, d *Deriver, seed []ID, fds []FD) map[string]bool {
	out := map[string]bool{}
	for _, id := range d.Closure(seed, fds) {
		out[s.in.Format(s.reg, id)] = true
	}
	return out
}

// The introduction's example: a stream sorted on (a, b); after a selection
// x = const the logical orderings include every interleaving of x.
func TestIntroConstantExample(t *testing.T) {
	s := newSpace()
	d := &Deriver{In: s.in}
	x := s.reg.Attr("x")
	got := closureStrings(s, d, []ID{s.ord("a", "b")}, []FD{NewConstant(x)})
	want := []string{
		"(a)", "(a, b)", "(x)",
		"(x, a, b)", "(a, x, b)", "(a, b, x)",
		"(x, a)", "(a, x)",
	}
	if len(got) != len(want) {
		t.Fatalf("closure size = %d, want %d: %v", len(got), len(want), got)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing %s", w)
		}
	}
}

// §4's running example: b → d applied to (a,b,c) yields (a,b,d,c) and
// (a,b,c,d); applied to (a,b) yields (a,b,d) (Figure 1).
func TestFigure1Derivations(t *testing.T) {
	s := newSpace()
	d := &Deriver{In: s.in}
	bd := NewFD(s.reg.Attr("d"), s.reg.Attr("b"))

	got := map[string]bool{}
	for _, id := range d.Derive(s.ord("a", "b", "c"), bd) {
		got[s.in.Format(s.reg, id)] = true
	}
	want := map[string]bool{"(a, b, d, c)": true, "(a, b, c, d)": true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Derive((a,b,c), b→d) = %v, want %v", got, want)
	}

	got2 := map[string]bool{}
	for _, id := range d.Derive(s.ord("a", "b"), bd) {
		got2[s.in.Format(s.reg, id)] = true
	}
	if !reflect.DeepEqual(got2, map[string]bool{"(a, b, d)": true}) {
		t.Fatalf("Derive((a,b), b→d) = %v", got2)
	}
}

func TestDeriveFDNotApplicable(t *testing.T) {
	s := newSpace()
	d := &Deriver{In: s.in}
	// b → d is not applicable to (a): b does not occur.
	bd := NewFD(s.reg.Attr("d"), s.reg.Attr("b"))
	if got := d.Derive(s.ord("a"), bd); len(got) != 0 {
		t.Fatalf("Derive((a), b→d) = %v, want empty", got)
	}
	// a → b is redundant on (a, b): b already occurs.
	ab := NewFD(s.reg.Attr("b"), s.reg.Attr("a"))
	if got := d.Derive(s.ord("a", "b"), ab); len(got) != 0 {
		t.Fatalf("Derive((a,b), a→b) = %v, want empty", got)
	}
}

func TestDeriveCompositeDeterminant(t *testing.T) {
	s := newSpace()
	d := &Deriver{In: s.in}
	// {a, b} → c on (b, x, a): c may appear anywhere after a (position 3+).
	c := s.reg.Attr("c")
	fd := NewFD(c, s.reg.Attr("a"), s.reg.Attr("b"))
	got := map[string]bool{}
	for _, id := range d.Derive(s.ord("b", "x", "a"), fd) {
		got[s.in.Format(s.reg, id)] = true
	}
	if !reflect.DeepEqual(got, map[string]bool{"(b, x, a, c)": true}) {
		t.Fatalf("got %v", got)
	}
}

// Equation derivations must reproduce the node set of Figure 11 (the
// §6.1 query): the closure of {(id), (jobid), (id,name), (salary)} under
// id = jobid has exactly 11 orderings.
func TestFigure11Closure(t *testing.T) {
	s := newSpace()
	d := &Deriver{In: s.in}
	id := s.reg.Attr("id")
	jobid := s.reg.Attr("jobid")
	seed := []ID{s.ord("id"), s.ord("jobid"), s.ord("id", "name"), s.ord("salary")}
	got := closureStrings(s, d, seed, []FD{NewEquation(id, jobid)})
	want := []string{
		"(id)", "(jobid)", "(salary)",
		"(id, name)", "(jobid, id)", "(id, jobid)", "(jobid, name)",
		"(id, name, jobid)", "(jobid, name, id)", "(id, jobid, name)", "(jobid, id, name)",
	}
	if len(got) != len(want) {
		t.Fatalf("closure size = %d, want %d: %v", len(got), len(want), got)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing %s", w)
		}
	}
}

// The equation rule subsumes both FD directions and replacement: from (a)
// under a = b we must obtain (b), (a,b) and (b,a) — the paper notes the
// edge (id) → (jobid) exists only because a = b is stronger than the two
// FDs.
func TestEquationStrongerThanFDPair(t *testing.T) {
	s := newSpace()
	d := &Deriver{In: s.in}
	a, b := s.reg.Attr("a"), s.reg.Attr("b")

	eq := map[string]bool{}
	for _, id := range d.Derive(s.ord("a"), NewEquation(a, b)) {
		eq[s.in.Format(s.reg, id)] = true
	}
	if !reflect.DeepEqual(eq, map[string]bool{"(b)": true, "(a, b)": true, "(b, a)": true}) {
		t.Fatalf("equation derivations = %v", eq)
	}

	fds := map[string]bool{}
	for _, fd := range []FD{NewFD(b, a), NewFD(a, b)} {
		for _, id := range d.Derive(s.ord("a"), fd) {
			fds[s.in.Format(s.reg, id)] = true
		}
	}
	if fds["(b)"] {
		t.Fatal("FD pair must not yield the replacement (b)")
	}
	if !fds["(a, b)"] {
		t.Fatal("FD pair must yield (a, b)")
	}
}

func TestEquationReplacementDropsDuplicate(t *testing.T) {
	s := newSpace()
	d := &Deriver{In: s.in}
	a, b := s.reg.Attr("a"), s.reg.Attr("b")
	// (a, c, b) under a = b: replacing a by b duplicates b → (b, c).
	got := map[string]bool{}
	for _, id := range d.Derive(s.ord("a", "c", "b"), NewEquation(a, b)) {
		got[s.in.Format(s.reg, id)] = true
	}
	if !got["(b, c)"] {
		t.Fatalf("missing duplicate-dropping replacement (b, c): %v", got)
	}
}

// --- closure properties ---

func TestClosureIsPrefixClosedAndContainsSeed(t *testing.T) {
	s := newSpace()
	d := &Deriver{In: s.in}
	seed := s.ord("a", "b", "c")
	fds := []FD{NewFD(s.reg.Attr("d"), s.reg.Attr("b"))}
	cl := d.Closure([]ID{seed}, fds)
	set := map[ID]bool{}
	for _, id := range cl {
		set[id] = true
	}
	if !set[seed] {
		t.Fatal("closure misses seed")
	}
	for _, id := range cl {
		for _, p := range s.in.Prefixes(id) {
			if !set[p] {
				t.Errorf("closure not prefix-closed: %s missing prefix %s",
					s.in.Format(s.reg, id), s.in.Format(s.reg, p))
			}
		}
	}
}

func TestClosureDeterministic(t *testing.T) {
	s := newSpace()
	d := &Deriver{In: s.in}
	a, b := s.reg.Attr("a"), s.reg.Attr("b")
	fds := []FD{NewEquation(a, b), NewConstant(s.reg.Attr("x"))}
	c1 := d.Closure([]ID{s.ord("a")}, fds)
	c2 := d.Closure([]ID{s.ord("a")}, fds)
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("closure not deterministic")
	}
}

// --- pruning heuristics (§5.7) ---

func TestLengthCutoff(t *testing.T) {
	s := newSpace()
	d := &Deriver{In: s.in, MaxLen: 1}
	// With interesting orders of length 1, FD chains must not grow nodes.
	a, b := s.reg.Attr("a"), s.reg.Attr("b")
	cl := d.Closure([]ID{s.ord("a")}, []FD{NewFD(b, a)})
	for _, id := range cl {
		if len(s.in.Seq(id)) > 1 {
			t.Errorf("length cutoff kept %s", s.in.Format(s.reg, id))
		}
	}
}

// §5.7's motivating example: interesting orders (a), (b), (c) with a
// cyclic equivalence-like FD chain would create all permutations of
// a, b, c without pruning; the heuristics must avoid that.
func TestPrefixViabilityPrunesPermutations(t *testing.T) {
	s := newSpace()
	a, b, c := s.reg.Attr("a"), s.reg.Attr("b"), s.reg.Attr("c")
	interesting := []ID{s.ord("a"), s.ord("b"), s.ord("c")}
	fds := []FD{NewFD(b, a), NewFD(a, b), NewFD(c, b), NewFD(b, c)}

	// Without pruning: permutations appear.
	free := &Deriver{In: s.in}
	clFree := free.Closure(interesting, fds)
	if len(clFree) <= 3 {
		t.Fatalf("unpruned closure unexpectedly small: %d", len(clFree))
	}

	idx := NewPrefixIndex(s.in, interesting, nil)
	pruned := &Deriver{In: s.in, Index: idx, MaxLen: idx.MaxLen()}
	clPruned := pruned.Closure(interesting, fds)
	if len(clPruned) != 3 {
		got := make([]string, len(clPruned))
		for i, id := range clPruned {
			got[i] = s.in.Format(s.reg, id)
		}
		t.Fatalf("pruned closure = %v, want exactly the three interesting orders", got)
	}
}

// The prefix heuristic must keep mid-ordering insertions that lead to
// interesting orders: (a, c) + a→b must still reach (a, b, c).
func TestPrefixViabilityKeepsMidInsertion(t *testing.T) {
	s := newSpace()
	a, b := s.reg.Attr("a"), s.reg.Attr("b")
	_ = b
	interesting := []ID{s.ord("a", "c"), s.ord("a", "b", "c")}
	idx := NewPrefixIndex(s.in, interesting, nil)
	d := &Deriver{In: s.in, Index: idx, MaxLen: idx.MaxLen()}
	cl := d.Closure([]ID{s.ord("a", "c")}, []FD{NewFD(b, a)})
	found := false
	for _, id := range cl {
		if id == s.ord("a", "b", "c") {
			found = true
		}
	}
	if !found {
		t.Fatal("pruned closure lost interesting order (a, b, c)")
	}
}

func TestEquivClassesAndRepDedup(t *testing.T) {
	s := newSpace()
	a, b, c, d := s.reg.Attr("a"), s.reg.Attr("b"), s.reg.Attr("c"), s.reg.Attr("d")
	sets := []FDSet{
		NewFDSet(NewEquation(a, b)),
		NewFDSet(NewEquation(b, c)),
		NewFDSet(NewFD(d, a)), // plain FD: no equivalence
	}
	reps := EquivClasses(s.reg.Len(), sets)
	if reps[a] != reps[b] || reps[b] != reps[c] {
		t.Fatalf("a,b,c should share a representative: %v", reps)
	}
	if reps[d] != d {
		t.Fatalf("d should be its own representative: %v", reps)
	}
	got := repDedup(nil, []Attr{b, d, c, a}, reps)
	if !reflect.DeepEqual(got, []Attr{reps[b], d}) {
		t.Fatalf("repDedup = %v", got)
	}
}

func TestPrefixIndexWithEquivalence(t *testing.T) {
	s := newSpace()
	id := s.reg.Attr("id")
	jobid := s.reg.Attr("jobid")
	name := s.reg.Attr("name")
	sets := []FDSet{NewFDSet(NewEquation(id, jobid))}
	reps := EquivClasses(s.reg.Len(), sets)
	interesting := []ID{s.ord("id"), s.ord("jobid"), s.ord("id", "name")}
	idx := NewPrefixIndex(s.in, interesting, reps)

	// (id, jobid) dedups to (id): viable, longest match (id, name) = 2.
	if l, ok := idx.Viable([]Attr{id, jobid}); !ok || l != 2 {
		t.Fatalf("Viable(id,jobid) = %d,%v", l, ok)
	}
	// (name) alone is not a prefix of any interesting order.
	if _, ok := idx.Viable([]Attr{name}); ok {
		t.Fatal("(name) should not be viable")
	}
	if idx.MaxLen() != 2 {
		t.Fatalf("MaxLen = %d", idx.MaxLen())
	}
}

// With the §5.7 heuristics on, the Figure 11 closure shrinks from 11 to
// 7 orderings: the raw length cutoff (longest interesting order = 2)
// truncates the three-attribute combinations, which can never influence
// plan generation. The equation-carrying two-attribute orderings stay.
func TestFigure11ClosureWithHeuristics(t *testing.T) {
	s := newSpace()
	id := s.reg.Attr("id")
	jobid := s.reg.Attr("jobid")
	sets := []FDSet{NewFDSet(NewEquation(id, jobid))}
	reps := EquivClasses(s.reg.Len(), sets)
	seed := []ID{s.ord("id"), s.ord("jobid"), s.ord("id", "name"), s.ord("salary")}
	idx := NewPrefixIndex(s.in, seed, reps)
	d := &Deriver{In: s.in, Reps: reps, Index: idx, MaxLen: idx.MaxLen()}
	cl := d.Closure(seed, FDsOf(sets))
	got := map[string]bool{}
	for _, o := range cl {
		got[s.in.Format(s.reg, o)] = true
	}
	want := []string{
		"(id)", "(jobid)", "(salary)",
		"(id, name)", "(jobid, name)", "(id, jobid)", "(jobid, id)",
	}
	if len(got) != len(want) {
		t.Fatalf("closure size = %d, want %d: %v", len(got), len(want), got)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing %s", w)
		}
	}
}

func TestNaiveContains(t *testing.T) {
	s := newSpace()
	a, b := s.reg.Attr("a"), s.reg.Attr("b")
	fds := []FD{NewEquation(a, b)}
	if !NaiveContains(s.in, s.ord("a"), fds, s.ord("b"), 1000) {
		t.Fatal("(a) ⊢ (b) under a = b")
	}
	if NaiveContains(s.in, s.ord("a"), nil, s.ord("b"), 1000) {
		t.Fatal("(a) must not contain (b) without FDs")
	}
	// Prefix satisfaction without FDs.
	if !NaiveContains(s.in, s.ord("a", "b"), nil, s.ord("a"), 1000) {
		t.Fatal("(a,b) must contain its prefix (a)")
	}
}

func TestFDsOfDedups(t *testing.T) {
	s := newSpace()
	a, b := s.reg.Attr("a"), s.reg.Attr("b")
	sets := []FDSet{NewFDSet(NewEquation(a, b)), NewFDSet(NewEquation(b, a), NewFD(b, a))}
	fds := FDsOf(sets)
	if len(fds) != 2 {
		t.Fatalf("FDsOf = %d FDs, want 2", len(fds))
	}
}

// TestInterningAllocs pins the interning paths every derivation step of
// nfsm.Build runs: looking up an ordering that is already interned
// allocates nothing (its key is built on the stack), and a warm Closure
// — one whose Deriver already grew its scratch — allocates only its
// result slice.
func TestInterningAllocs(t *testing.T) {
	s := newSpace()
	id := s.reg.Attr("id")
	jobid := s.reg.Attr("jobid")
	name := s.reg.Attr("name")
	sets := []FDSet{NewFDSet(NewEquation(id, jobid))}
	reps := EquivClasses(s.reg.Len(), sets)
	seed := []ID{s.ord("id"), s.ord("jobid"), s.ord("id", "name"), s.ord("salary")}
	idx := NewPrefixIndex(s.in, seed, reps)
	d := &Deriver{In: s.in, Reps: reps, Index: idx, MaxLen: idx.MaxLen()}
	fds := FDsOf(sets)
	want := d.Closure(seed, fds)

	seq := []Attr{id, name}
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Intern of an interned ordering", func() { s.in.Intern(seq) }},
		{"PrefixIndex.Viable", func() { idx.Viable([]Attr{id, jobid, name}) }},
	} {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s: %.0f allocations, want 0", c.name, allocs)
		}
	}
	var got []ID
	if allocs := testing.AllocsPerRun(100, func() { got = d.Closure(seed, fds) }); allocs != 1 {
		t.Errorf("warm Closure: %.0f allocations, want 1 (its result)", allocs)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("warm Closure = %v, first call %v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { got = d.ClosureView(seed, fds) }); allocs != 0 {
		t.Errorf("warm ClosureView: %.0f allocations, want 0", allocs)
	}
	got = slices.Clone(got)
	s.in.SortIDs(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ClosureView sorted = %v, Closure %v", got, want)
	}
}
