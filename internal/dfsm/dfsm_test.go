package dfsm

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"orderopt/internal/bitset"
	"orderopt/internal/nfsm"
	"orderopt/internal/order"
)

type fixture struct {
	reg *order.Registry
	in  *order.Interner
}

func newFixture() *fixture {
	return &fixture{reg: order.NewRegistry(), in: order.NewInterner()}
}

func (f *fixture) ord(names ...string) order.ID {
	return f.in.Intern(f.reg.Attrs(names...))
}

func (f *fixture) build(t *testing.T, input nfsm.Input, opt nfsm.Options) *Machine {
	t.Helper()
	n, err := nfsm.Build(input, opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Convert(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func (f *fixture) setStrings(m *Machine, s StateID) map[string]bool {
	out := map[string]bool{}
	for _, ns := range m.Sets[s] {
		if ns == nfsm.StartState {
			out["q0"] = true
			continue
		}
		out[f.in.Format(f.reg, m.N.States[ns].Ord)] = true
	}
	return out
}

func (f *fixture) runningExample() nfsm.Input {
	b := f.reg.Attr("b")
	c := f.reg.Attr("c")
	d := f.reg.Attr("d")
	return nfsm.Input{
		Reg:      f.reg,
		In:       f.in,
		Produced: []order.ID{f.ord("b"), f.ord("a", "b")},
		Tested:   []order.ID{f.ord("a", "b", "c")},
		FDSets: []order.FDSet{
			order.NewFDSet(order.NewFD(c, b)),
			order.NewFDSet(order.NewFD(d, b)),
		},
	}
}

// Figure 8: the DFSM of the running example has the four states
// * , 1:{(b)}, 2:{(a),(a,b)}, 3:{(a),(a,b),(a,b,c)}.
func TestFigure8(t *testing.T) {
	f := newFixture()
	m := f.build(t, f.runningExample(), nfsm.AllPruning())
	if m.NumStates() != 4 {
		t.Fatalf("DFSM states = %d, want 4\n%s", m.NumStates(), m.Dump())
	}
	wantSets := []map[string]bool{
		{"q0": true},
		{"(b)": true},
		{"(a)": true, "(a, b)": true},
		{"(a)": true, "(a, b)": true, "(a, b, c)": true},
	}
	for i, want := range wantSets {
		got := f.setStrings(m, StateID(i))
		if len(got) != len(want) {
			t.Errorf("state %d = %v, want %v", i, got, want)
			continue
		}
		for k := range want {
			if !got[k] {
				t.Errorf("state %d missing %s", i, k)
			}
		}
	}
}

// Figure 9: the precomputed contains matrix.
func TestFigure9(t *testing.T) {
	f := newFixture()
	m := f.build(t, f.runningExample(), nfsm.AllPruning())
	type row struct {
		state StateID
		avail map[string]bool
	}
	rows := []row{
		{1, map[string]bool{"(a)": false, "(a, b)": false, "(a, b, c)": false, "(b)": true}},
		{2, map[string]bool{"(a)": true, "(a, b)": true, "(a, b, c)": false, "(b)": false}},
		{3, map[string]bool{"(a)": true, "(a, b)": true, "(a, b, c)": true, "(b)": false}},
	}
	ords := map[string]order.ID{
		"(a)":       f.ord("a"),
		"(b)":       f.ord("b"),
		"(a, b)":    f.ord("a", "b"),
		"(a, b, c)": f.ord("a", "b", "c"),
	}
	for _, r := range rows {
		for name, want := range r.avail {
			if got := m.Contains(r.state, ords[name]); got != want {
				t.Errorf("Contains(%d, %s) = %v, want %v", r.state, name, got, want)
			}
		}
	}
}

// Figure 10: the precomputed transition table. Rows *,1,2,3 and columns
// {b→c}, (b), (a,b) — note the machine orders produced symbols (b) first
// because it is shorter.
func TestFigure10(t *testing.T) {
	f := newFixture()
	m := f.build(t, f.runningExample(), nfsm.AllPruning())
	symFD := 0
	symB := m.N.ProducedSymbol(f.ord("b"))
	symAB := m.N.ProducedSymbol(f.ord("a", "b"))
	if symB < 0 || symAB < 0 {
		t.Fatal("missing produced symbols")
	}
	want := map[StateID][3]StateID{
		Start: {Start, 1, 2}, // {b→c}→*, (b)→1, (a,b)→2
		1:     {1, 1, 1},
		2:     {3, 2, 2},
		3:     {3, 3, 3},
	}
	for s, w := range want {
		if got := m.Step(s, symFD); got != w[0] {
			t.Errorf("Step(%d, {b→c}) = %d, want %d", s, got, w[0])
		}
		if got := m.Step(s, symB); got != w[1] {
			t.Errorf("Step(%d, (b)) = %d, want %d", s, got, w[1])
		}
		if got := m.Step(s, symAB); got != w[2] {
			t.Errorf("Step(%d, (a,b)) = %d, want %d", s, got, w[2])
		}
	}
}

// §5.6's walkthrough: sort by (a,b) → state 2 (satisfies (a) and (a,b));
// apply the operator inducing b→c → state 3 (satisfies (a,b,c) too).
func TestSection56Walkthrough(t *testing.T) {
	f := newFixture()
	m := f.build(t, f.runningExample(), nfsm.AllPruning())
	s := m.ProduceState(f.ord("a", "b"))
	if !m.Contains(s, f.ord("a")) || !m.Contains(s, f.ord("a", "b")) {
		t.Fatal("state after producing (a,b) must contain (a) and (a,b)")
	}
	if m.Contains(s, f.ord("a", "b", "c")) {
		t.Fatal("(a,b,c) must not be available before b→c")
	}
	s = m.Step(s, 0) // FD symbol {b→c}
	if !m.Contains(s, f.ord("a", "b", "c")) {
		t.Fatal("(a,b,c) must be available after b→c")
	}
}

// Figures 1 and 2: the intro example (a,b,c) with {b→d}, no pruning.
func TestFigure1And2(t *testing.T) {
	f := newFixture()
	b := f.reg.Attr("b")
	d := f.reg.Attr("d")
	input := nfsm.Input{
		Reg:      f.reg,
		In:       f.in,
		Produced: []order.ID{f.ord("a", "b", "c")},
		FDSets:   []order.FDSet{order.NewFDSet(order.NewFD(d, b))},
	}
	m := f.build(t, input, nfsm.NoPruning())
	// NFSM: q0 + 6 ordering nodes (a),(a,b),(a,b,c),(a,b,d),(a,b,c,d),(a,b,d,c).
	if got := m.N.NumStates(); got != 7 {
		t.Fatalf("NFSM states = %d, want 7\n%s", got, m.N.Dump())
	}
	// DFSM: *, {a,ab,abc}, {a,ab,abc,abd,abcd,abdc} (Figure 2).
	if m.NumStates() != 3 {
		t.Fatalf("DFSM states = %d, want 3\n%s", m.NumStates(), m.Dump())
	}
	s1 := m.ProduceState(f.ord("a", "b", "c"))
	got1 := f.setStrings(m, s1)
	if len(got1) != 3 || !got1["(a)"] || !got1["(a, b)"] || !got1["(a, b, c)"] {
		t.Errorf("state after producing (a,b,c) = %v", got1)
	}
	s2 := m.Step(s1, 0)
	got2 := f.setStrings(m, s2)
	if len(got2) != 6 || !got2["(a, b, d, c)"] || !got2["(a, b, c, d)"] || !got2["(a, b, d)"] {
		t.Errorf("state after {b→d} = %v", got2)
	}
	if m.Step(s2, 0) != s2 {
		t.Error("{b→d} must be a fixpoint on the expanded state")
	}
}

// Figure 12: the DFSM of the §6.1 query (built without pruning so the
// NFSM matches Figure 11 exactly).
func TestFigure12(t *testing.T) {
	f := newFixture()
	id := f.reg.Attr("id")
	jobid := f.reg.Attr("jobid")
	input := nfsm.Input{
		Reg:      f.reg,
		In:       f.in,
		Produced: []order.ID{f.ord("id"), f.ord("jobid"), f.ord("id", "name")},
		Tested:   []order.ID{f.ord("salary")},
		FDSets:   []order.FDSet{order.NewFDSet(order.NewEquation(id, jobid))},
	}
	m := f.build(t, input, nfsm.NoPruning())
	// States: *, {(id)}, {(jobid)}, {(id),(id,name)}, the 4-ordering
	// equation state and the 10-ordering equation state.
	if m.NumStates() != 6 {
		t.Fatalf("DFSM states = %d, want 6\n%s", m.NumStates(), m.Dump())
	}
	sID := m.ProduceState(f.ord("id"))
	sJob := m.ProduceState(f.ord("jobid"))
	sIDName := m.ProduceState(f.ord("id", "name"))

	eq := 0 // only FD symbol
	small := m.Step(sID, eq)
	if m.Step(sJob, eq) != small {
		t.Error("(id) and (jobid) must reach the same equation state")
	}
	got := f.setStrings(m, small)
	for _, w := range []string{"(id)", "(jobid)", "(jobid, id)", "(id, jobid)"} {
		if !got[w] {
			t.Errorf("small equation state missing %s: %v", w, got)
		}
	}
	if len(got) != 4 {
		t.Errorf("small equation state = %v, want 4 members", got)
	}

	big := m.Step(sIDName, eq)
	gb := f.setStrings(m, big)
	if len(gb) != 10 {
		t.Errorf("big equation state has %d members, want 10: %v", len(gb), gb)
	}
	if gb["(salary)"] {
		t.Error("(salary) must not be reachable (Figure 12: the node does not appear)")
	}
	// The paper's point: after producing (id,name) and applying
	// id = jobid, the stream satisfies the ORDER BY (jobid, name).
	if !m.Contains(big, f.ord("jobid", "name")) {
		// (jobid,name) is an artificial node, not in the contains matrix
		// by default — but (id,name) and (jobid) are.
		t.Log("contains matrix only answers interesting orders; checking those instead")
	}
	if !m.Contains(big, f.ord("id", "name")) || !m.Contains(big, f.ord("jobid")) {
		t.Error("big equation state must contain (id,name) and (jobid)")
	}
}

func TestSubsetOfAndRow(t *testing.T) {
	f := newFixture()
	m := f.build(t, f.runningExample(), nfsm.AllPruning())
	s2 := m.ProduceState(f.ord("a", "b"))
	s3 := m.Step(s2, 0)
	if !m.SubsetOf(s2, s3) {
		t.Error("state 2 ⊆ state 3 expected")
	}
	if m.SubsetOf(s3, s2) {
		t.Error("state 3 ⊄ state 2 expected")
	}
	s1 := m.ProduceState(f.ord("b"))
	if m.SubsetOf(s1, s2) || m.SubsetOf(s2, s1) {
		t.Error("states 1 and 2 must be incomparable")
	}
	for _, o := range [][]string{{"a"}, {"a", "b"}, {"a", "b", "c"}} {
		if !m.Contains(s3, f.ord(o...)) {
			t.Errorf("state 3 must contain %v", o)
		}
	}
}

// TestColumnLookups holds Contains to the contains matrix through the
// dense order-ID index: registered orderings answer by their bit, and
// orderings the machine never saw — including one interned after
// Convert, whose ID lies past the index — are unavailable without
// panicking.
func TestColumnLookups(t *testing.T) {
	f := newFixture()
	m := f.build(t, f.runningExample(), nfsm.AllPruning())
	s2 := m.ProduceState(f.ord("a", "b"))
	if !m.Contains(s2, f.ord("a", "b")) || m.Contains(s2, f.ord("b")) {
		t.Error("Contains disagrees with Figure 9's row 2")
	}
	late := f.ord("z", "q")
	if int(late) < len(m.ordBit) {
		t.Fatalf("ordering interned after Convert has ID %d inside the %d-entry index", late, len(m.ordBit))
	}
	for s := StateID(0); int(s) < m.NumStates(); s++ {
		if m.Contains(s, late) {
			t.Errorf("state %d contains an ordering interned after Convert", s)
		}
	}
	if !m.Contains(Start, order.EmptyID) {
		t.Error("the empty ordering is available everywhere")
	}
}

func TestProduceStateUnknown(t *testing.T) {
	f := newFixture()
	m := f.build(t, f.runningExample(), nfsm.AllPruning())
	if got := m.ProduceState(f.ord("q")); got != Start {
		t.Errorf("ProduceState(unknown) = %d, want Start", got)
	}
	// Tested-only orders cannot be produced either.
	if got := m.ProduceState(f.ord("a", "b", "c")); got != Start {
		t.Errorf("ProduceState(tested-only) = %d, want Start", got)
	}
}

func TestPrecomputedBytesPositive(t *testing.T) {
	f := newFixture()
	m := f.build(t, f.runningExample(), nfsm.AllPruning())
	if m.PrecomputedBytes() <= 0 {
		t.Error("PrecomputedBytes must be positive")
	}
	// 4 states × 3 symbols × 4 bytes = 48 bytes of transitions plus 4
	// contains rows of one word each.
	if got := m.PrecomputedBytes(); got != 48+4*8 {
		t.Errorf("PrecomputedBytes = %d, want 80", got)
	}
}

func TestMaxStatesLimit(t *testing.T) {
	f := newFixture()
	n, err := nfsm.Build(f.runningExample(), nfsm.AllPruning())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Convert(n, Options{MaxStates: 2}); err == nil {
		t.Error("Convert with MaxStates=2 should fail for a 4-state DFSM")
	}
}

func TestDumpMentionsEverything(t *testing.T) {
	f := newFixture()
	m := f.build(t, f.runningExample(), nfsm.AllPruning())
	d := m.Dump()
	for _, want := range []string{"DFSM: 4 states", "contains matrix", "transition table", "{b → c}"} {
		if !strings.Contains(d, want) {
			t.Errorf("Dump missing %q", want)
		}
	}
}

// Pruning must never change observable behaviour: for the running
// example, contains answers on interesting orders must be identical with
// and without pruning, for every reachable state along every FD path.
func TestPruningPreservesSemantics(t *testing.T) {
	f := newFixture()
	pruned := f.build(t, f.runningExample(), nfsm.AllPruning())

	f2 := newFixture()
	unpruned := f2.build(t, f2.runningExample(), nfsm.NoPruning())

	interesting := [][]string{{"b"}, {"a", "b"}, {"a", "b", "c"}, {"a"}}
	produced := [][]string{{"b"}, {"a", "b"}}

	for _, p := range produced {
		sp := pruned.ProduceState(f.ord(p...))
		su := unpruned.ProduceState(f2.ord(p...))
		// Apply every FD-symbol sequence up to length 2 in the unpruned
		// machine and the corresponding pruned symbol.
		type pair struct {
			sp StateID
			su StateID
		}
		frontier := []pair{{sp, su}}
		for depth := 0; depth < 2; depth++ {
			var next []pair
			for _, pr := range frontier {
				for origSym := range f2.runningExample().FDSets {
					puSym := unpruned.N.FDSymbol[origSym]
					ppSym := pruned.N.FDSymbol[origSym]
					nu := pr.su
					if puSym >= 0 {
						nu = unpruned.Step(pr.su, puSym)
					}
					np := pr.sp
					if ppSym >= 0 {
						np = pruned.Step(pr.sp, ppSym)
					}
					next = append(next, pair{np, nu})
				}
			}
			frontier = next
			for _, pr := range frontier {
				for _, io := range interesting {
					got := pruned.Contains(pr.sp, f.ord(io...))
					want := unpruned.Contains(pr.su, f2.ord(io...))
					if got != want {
						t.Fatalf("pruning changed Contains(%v) after path: got %v want %v", io, got, want)
					}
				}
			}
		}
	}
}

// convertReference is the powerset construction as it stood before the
// allocation-lean rewrite (fmt-built string keys, a seen-map and a
// reflective sort per ε-closure): the oracle Convert must match bit for
// bit. ConvertReference and DiffMachines hand both to the external
// oracle test, which can import the query packages this one cannot.
func convertReference(n *nfsm.Machine, opt Options) (*Machine, error) {
	nSym, nFD := n.NumSymbols(), n.NumFDSymbols()
	m := &Machine{N: n, nSym: nSym}
	for _, st := range n.InterestingStates() {
		if st.Ord != order.EmptyID {
			m.Columns = append(m.Columns, st.Ord)
		}
	}

	key := func(set []nfsm.StateID) string {
		var b strings.Builder
		for _, s := range set {
			fmt.Fprintf(&b, "%d,", s)
		}
		return b.String()
	}
	index := make(map[string]StateID)
	add := func(set []nfsm.StateID) StateID {
		k := key(set)
		if id, ok := index[k]; ok {
			return id
		}
		id := StateID(len(m.Sets))
		index[k] = id
		m.Sets = append(m.Sets, set)
		m.trans = append(m.trans, make([]StateID, nSym)...)
		return id
	}

	start := add([]nfsm.StateID{nfsm.StartState})
	for cur := start; int(cur) < len(m.Sets); cur++ {
		if opt.MaxStates > 0 && len(m.Sets) > opt.MaxStates {
			return nil, fmt.Errorf("dfsm: state limit %d exceeded", opt.MaxStates)
		}
		set := m.Sets[cur]
		for sym := 0; sym < nSym; sym++ {
			var next []nfsm.StateID
			if sym < nFD {
				next = append(next, set...)
				for _, s := range set {
					if s == nfsm.StartState {
						continue
					}
					next = append(next, n.FDTargets(s, sym)...)
				}
			} else {
				fromStart := false
				for _, s := range set {
					if s == nfsm.StartState {
						fromStart = true
						break
					}
				}
				if fromStart {
					next = []nfsm.StateID{n.StartTargetForSymbol(sym)}
				} else {
					next = append(next, set...)
				}
			}
			to := add(epsCloseReference(n, next))
			m.trans[int(cur)*nSym+sym] = to
		}
	}

	referenceTables(m, opt.MaxSimulationStates)
	return m, nil
}

// referenceTables computes the contains and subsumption matrices the way
// they were built before the flat layout — one bitset.Set per row,
// columns found through order → column maps — and packs the rows into
// m's slabs, so the oracle holds the slab code to the per-row
// construction bit for bit. The dense order-ID index is rebuilt from
// that map, independently of Convert's.
func referenceTables(m *Machine, limit int) {
	colOf := map[order.ID]int{}
	for i, o := range m.Columns {
		colOf[o] = i
	}
	for o, c := range colOf {
		for len(m.ordBit) <= int(o) {
			m.ordBit = append(m.ordBit, -1)
		}
		m.ordBit[o] = int32(c)
	}
	m.words = (len(colOf) + 63) / 64
	n := len(m.Sets)
	rows := make([]*bitset.Set, n)
	for i, set := range m.Sets {
		rows[i] = bitset.New(len(m.Columns))
		for _, s := range set {
			st := m.N.States[s]
			if c, ok := colOf[st.Ord]; ok && st.Kind == nfsm.KindInteresting {
				rows[i].Add(c)
			}
		}
	}
	sub := make([]*bitset.Set, n)
	for a := range sub {
		sub[a] = bitset.FromInts(a)
		for b := 0; b < n && (limit <= 0 || n <= limit); b++ {
			if rows[a].SubsetOf(rows[b]) {
				sub[a].Add(b)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for a := range sub {
			sub[a].ForEach(func(b int) bool {
				for sym := 0; sym < m.N.NumFDSymbols(); sym++ {
					na, nb := m.Step(StateID(a), sym), m.Step(StateID(b), sym)
					if (na != StateID(a) || nb != StateID(b)) && !sub[na].Contains(int(nb)) {
						sub[a].Remove(b)
						changed = true
						break
					}
				}
				return true
			})
		}
	}
	pack := func(rows []*bitset.Set, w int) []uint64 {
		slab := make([]uint64, len(rows)*w)
		for i, r := range rows {
			r.ForEach(func(b int) bool {
				slab[i*w+b/64] |= 1 << (b % 64)
				return true
			})
		}
		return slab
	}
	m.contains = pack(rows, m.words)
	m.subWords = (n + 63) / 64
	m.subsume = pack(sub, m.subWords)
}

func epsCloseReference(n *nfsm.Machine, set []nfsm.StateID) []nfsm.StateID {
	seen := make(map[nfsm.StateID]bool, len(set))
	var out []nfsm.StateID
	var visit func(s nfsm.StateID)
	visit = func(s nfsm.StateID) {
		if s == nfsm.NoState || seen[s] {
			return
		}
		seen[s] = true
		out = append(out, s)
		visit(n.Eps(s))
	}
	for _, s := range set {
		visit(s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

var ConvertReference = convertReference

// DiffMachines returns the first difference between two machines over
// one NFSM — state numbering and member sets, the contains-matrix
// columns and their ID index, and the transition, contains and
// subsumption slabs word for word — or "".
func DiffMachines(got, want *Machine) string {
	if len(got.Sets) != len(want.Sets) {
		return fmt.Sprintf("%d states, want %d", len(got.Sets), len(want.Sets))
	}
	for s := range want.Sets {
		if !slices.Equal(got.Sets[s], want.Sets[s]) {
			return fmt.Sprintf("Sets[%d] = %v, want %v", s, got.Sets[s], want.Sets[s])
		}
	}
	switch {
	case !slices.Equal(got.Columns, want.Columns) || !slices.Equal(got.ordBit, want.ordBit):
		return "contains-matrix columns differ"
	case got.nSym != want.nSym || !slices.Equal(got.trans, want.trans):
		return fmt.Sprintf("trans = %v (%d symbols), want %v (%d)", got.trans, got.nSym, want.trans, want.nSym)
	case got.words != want.words || !slices.Equal(got.contains, want.contains):
		return fmt.Sprintf("contains = %x (%d words/row), want %x (%d)", got.contains, got.words, want.contains, want.words)
	case got.subWords != want.subWords || !slices.Equal(got.subsume, want.subsume):
		return fmt.Sprintf("subsume = %x (%d words/row), want %x (%d)", got.subsume, got.subWords, want.subsume, want.subWords)
	case got.PrecomputedBytes() != want.PrecomputedBytes():
		return fmt.Sprintf("PrecomputedBytes %d, want %d", got.PrecomputedBytes(), want.PrecomputedBytes())
	}
	return ""
}

// TestConvertMatchesReferenceRandom holds Convert to the reference on
// the property tests' generator and on the paper's worked examples.
func TestConvertMatchesReferenceRandom(t *testing.T) {
	check := func(name string, got *Machine) {
		t.Helper()
		want, err := convertReference(got.N, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if d := DiffMachines(got, want); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		m, _ := randomMachine(t, rng)
		check(fmt.Sprintf("trial %d", trial), m)
	}
	f := newFixture()
	check("running example", f.build(t, f.runningExample(), nfsm.NoPruning()))
	check("running example, pruned", f.build(t, f.runningExample(), nfsm.AllPruning()))
}
