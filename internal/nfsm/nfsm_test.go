package nfsm

import (
	"strings"
	"testing"

	"orderopt/internal/order"
)

// fixture builds the running example of §5.2–5.3: O_P = {(b), (a,b)},
// O_T = {(a,b,c)}, F = {{b→c}, {b→d}}.
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

func (f *fixture) runningExample() Input {
	b := f.reg.Attr("b")
	c := f.reg.Attr("c")
	d := f.reg.Attr("d")
	return Input{
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

func (f *fixture) stateOrds(m *Machine) map[string]Kind {
	out := map[string]Kind{}
	for _, st := range m.States {
		if st.Kind == KindStart {
			continue
		}
		out[f.in.Format(f.reg, st.Ord)] = st.Kind
	}
	return out
}

// Figure 7: the fully pruned NFSM for the running example has exactly the
// states q0, (a), (b), (a,b), (a,b,c); b→d is pruned; (b,c) never exists.
func TestFigures4To7FullPruning(t *testing.T) {
	f := newFixture()
	m, err := Build(f.runningExample(), AllPruning())
	if err != nil {
		t.Fatal(err)
	}
	got := f.stateOrds(m)
	want := map[string]Kind{
		"(a)":       KindInteresting, // prefix of (a,b)
		"(b)":       KindInteresting,
		"(a, b)":    KindInteresting,
		"(a, b, c)": KindInteresting,
	}
	if len(got) != len(want) {
		t.Fatalf("states = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("state %s kind = %v, want %v", k, got[k], v)
		}
	}
	if m.NumFDSymbols() != 1 {
		t.Fatalf("FD symbols = %d, want 1 ({b→d} pruned)", m.NumFDSymbols())
	}
	if m.PrunedFDs != 1 {
		t.Errorf("PrunedFDs = %d, want 1", m.PrunedFDs)
	}
	// The only FD edge is (a,b) --{b→c}--> (a,b,c).
	ab := m.StateOf(f.ord("a", "b"))
	abc := m.StateOf(f.ord("a", "b", "c"))
	targets := m.FDTargets(ab, 0)
	if len(targets) != 1 || targets[0] != abc {
		t.Errorf("FDTargets((a,b), {b→c}) = %v, want [%d]", targets, abc)
	}
	if n := len(m.FDTargets(m.StateOf(f.ord("b")), 0)); n != 0 {
		t.Errorf("(b) should have no {b→c} edge after pruning, got %d targets", n)
	}
	// ε edges: (a,b,c) → (a,b) → (a).
	if m.Eps(abc) != ab {
		t.Error("ε((a,b,c)) ≠ (a,b)")
	}
	if m.Eps(ab) != m.StateOf(f.ord("a")) {
		t.Error("ε((a,b)) ≠ (a)")
	}
	// Start edges exist for the produced orders only.
	if m.StartTarget(f.ord("b")) == NoState || m.StartTarget(f.ord("a", "b")) == NoState {
		t.Error("missing start edges for produced orders")
	}
	if m.StartTarget(f.ord("a", "b", "c")) != NoState {
		t.Error("tested-only order must not have a start edge")
	}
}

// Without any pruning the closure contains every derivable ordering
// including the d-extensions (the paper's Figure 5 stage plus closure).
func TestRunningExampleNoPruning(t *testing.T) {
	f := newFixture()
	m, err := Build(f.runningExample(), NoPruning())
	if err != nil {
		t.Fatal(err)
	}
	got := f.stateOrds(m)
	for _, s := range []string{
		"(a)", "(b)", "(a, b)", "(a, b, c)", "(b, c)", "(b, d)", "(a, b, d)",
		"(a, b, c, d)", "(a, b, d, c)", "(b, c, d)", "(b, d, c)",
	} {
		if _, ok := got[s]; !ok {
			t.Errorf("missing state %s", s)
		}
	}
	if len(got) != 11 {
		t.Errorf("states = %d, want 11: %v", len(got), got)
	}
	if m.NumFDSymbols() != 2 {
		t.Errorf("FD symbols = %d, want 2", m.NumFDSymbols())
	}
}

// Figure 6: with the viability heuristic off but artificial-node pruning
// on, (b,c) is first created and then pruned because it reaches the
// interesting node (b) only through ε.
func TestArtificialNodePruning(t *testing.T) {
	f := newFixture()
	opt := Options{PruneFDs: true, MergeArtificial: true, PruneArtificial: true, DropInertSymbols: true}
	m, err := Build(f.runningExample(), opt)
	if err != nil {
		t.Fatal(err)
	}
	got := f.stateOrds(m)
	if _, ok := got["(b, c)"]; ok {
		t.Error("(b,c) should have been pruned")
	}
	if len(got) != 4 {
		t.Errorf("states = %v, want 4 ordering states", got)
	}
	if m.PrunedNodes == 0 {
		t.Error("expected PrunedNodes > 0")
	}
}

// Figure 11 is drawn without pruning: the simple §6.1 query must yield
// exactly 11 ordering states under id = jobid.
func TestFigure11(t *testing.T) {
	f := newFixture()
	id := f.reg.Attr("id")
	jobid := f.reg.Attr("jobid")
	input := Input{
		Reg:      f.reg,
		In:       f.in,
		Produced: []order.ID{f.ord("id"), f.ord("jobid"), f.ord("id", "name")},
		Tested:   []order.ID{f.ord("salary")},
		FDSets:   []order.FDSet{order.NewFDSet(order.NewEquation(id, jobid))},
	}
	m, err := Build(input, NoPruning())
	if err != nil {
		t.Fatal(err)
	}
	got := f.stateOrds(m)
	if len(got) != 11 {
		t.Fatalf("states = %d, want 11: %v", len(got), got)
	}
	// The equation edge (id) → (jobid) must exist: a = b is stronger than
	// the FD pair (paper, §6.1).
	idState := m.StateOf(f.ord("id"))
	jobidState := m.StateOf(f.ord("jobid"))
	found := false
	for _, tgt := range m.FDTargets(idState, 0) {
		if tgt == jobidState {
			found = true
		}
	}
	if !found {
		t.Error("missing replacement edge (id) --id=jobid--> (jobid)")
	}
	// (salary) exists but has no start edge.
	if m.StateOf(f.ord("salary")) == NoState {
		t.Error("(salary) state missing")
	}
	if m.StartTarget(f.ord("salary")) != NoState {
		t.Error("(salary) must not be produced")
	}
}

func TestMergeArtificialNodes(t *testing.T) {
	f := newFixture()
	// Two independent FDs generate the artificial nodes (a,b,x) and
	// (a,b,y) whose behaviour is identical up to their own ordering; they
	// do not merge (different ε targets would be unsound), but twins from
	// the same derivation with identical edges do. Construct a case with
	// two identical-behaviour artificial nodes: interesting (a,b) with
	// x = y equivalent attributes never tested.
	a, b := f.reg.Attr("a"), f.reg.Attr("b")
	input := Input{
		Reg:      f.reg,
		In:       f.in,
		Produced: []order.ID{f.ord("a", "b")},
		FDSets: []order.FDSet{
			order.NewFDSet(order.NewFD(f.reg.Attr("x"), a), order.NewFD(f.reg.Attr("y"), a)),
		},
	}
	_ = b
	m, err := Build(input, Options{MergeArtificial: true})
	if err != nil {
		t.Fatal(err)
	}
	// (a,x) and (a,y) behave identically (both only extend with the
	// other attribute and ε to (a)) — they must merge.
	if m.MergedNodes == 0 {
		t.Errorf("expected merged artificial nodes, got %d\n%s", m.MergedNodes, m.Dump())
	}
}

func TestInertSymbolDropped(t *testing.T) {
	f := newFixture()
	// An FD over attributes that never meet an interesting order is inert
	// even without FD pruning: its edges never leave an ε-closure.
	input := Input{
		Reg:      f.reg,
		In:       f.in,
		Produced: []order.ID{f.ord("a")},
		FDSets: []order.FDSet{
			order.NewFDSet(order.NewFD(f.reg.Attr("z"), f.reg.Attr("q"))),
		},
	}
	m, err := Build(input, Options{DropInertSymbols: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumFDSymbols() != 0 {
		t.Fatalf("FD symbols = %d, want 0", m.NumFDSymbols())
	}
	if m.FDSymbol[0] != -1 {
		t.Fatalf("FDSymbol[0] = %d, want -1 (identity)", m.FDSymbol[0])
	}
	if m.InertSymbols != 1 {
		t.Fatalf("InertSymbols = %d, want 1", m.InertSymbols)
	}
}

func TestFDSymbolMappingDedup(t *testing.T) {
	f := newFixture()
	a, b := f.reg.Attr("a"), f.reg.Attr("b")
	set := order.NewFDSet(order.NewEquation(a, b))
	input := Input{
		Reg:      f.reg,
		In:       f.in,
		Produced: []order.ID{f.ord("a"), f.ord("b")},
		FDSets:   []order.FDSet{set, order.NewFDSet(order.NewEquation(b, a))},
	}
	m, err := Build(input, AllPruning())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumFDSymbols() != 1 {
		t.Fatalf("FD symbols = %d, want 1 (duplicate sets share a symbol)", m.NumFDSymbols())
	}
	if m.FDSymbol[0] != m.FDSymbol[1] {
		t.Fatalf("duplicate FD sets got different symbols: %v", m.FDSymbol)
	}
}

func TestBuildErrors(t *testing.T) {
	f := newFixture()
	if _, err := Build(Input{}, AllPruning()); err == nil {
		t.Error("Build without registry/interner must fail")
	}
	if _, err := Build(Input{Reg: f.reg, In: f.in}, AllPruning()); err == nil {
		t.Error("Build without interesting orders must fail")
	}
	if _, err := Build(Input{Reg: f.reg, In: f.in, Produced: []order.ID{order.EmptyID}}, AllPruning()); err == nil {
		t.Error("Build with empty ordering must fail")
	}
}

func TestProducedSymbolAndDump(t *testing.T) {
	f := newFixture()
	m, err := Build(f.runningExample(), AllPruning())
	if err != nil {
		t.Fatal(err)
	}
	bOrd := f.ord("b")
	if sym := m.ProducedSymbol(bOrd); sym < m.NumFDSymbols() {
		t.Fatalf("ProducedSymbol((b)) = %d, want ≥ %d", sym, m.NumFDSymbols())
	}
	if m.ProducedSymbol(f.ord("a", "b", "c")) != -1 {
		t.Error("tested-only order must have no produced symbol")
	}
	d := m.Dump()
	for _, want := range []string{"q0 (start)", "(a, b, c)", "--ε-->", "{b → c}"} {
		if !strings.Contains(d, want) {
			t.Errorf("Dump missing %q:\n%s", want, d)
		}
	}
}

// The produced orders must be sorted deterministically: (b) before (a,b)
// (shorter first), matching the paper's DFSM numbering in Figure 8.
func TestProducedOrderDeterministic(t *testing.T) {
	f := newFixture()
	m, err := Build(f.runningExample(), AllPruning())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Produced) != 2 {
		t.Fatalf("Produced = %v", m.Produced)
	}
	if f.in.Format(f.reg, m.Produced[0]) != "(b)" || f.in.Format(f.reg, m.Produced[1]) != "(a, b)" {
		t.Errorf("produced order sequence = [%s, %s], want [(b), (a, b)]",
			f.in.Format(f.reg, m.Produced[0]), f.in.Format(f.reg, m.Produced[1]))
	}
}

func TestDOTOutput(t *testing.T) {
	f := newFixture()
	m, err := Build(f.runningExample(), AllPruning())
	if err != nil {
		t.Fatal(err)
	}
	dot := m.DOT()
	for _, want := range []string{"digraph nfsm", "q0 ->", "ε", "{b → c}"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestMachineAccessors(t *testing.T) {
	f := newFixture()
	m, err := Build(f.runningExample(), AllPruning())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != 5 {
		t.Errorf("NumStates = %d", m.NumStates())
	}
	if m.NumSymbols() != 3 {
		t.Errorf("NumSymbols = %d", m.NumSymbols())
	}
	if got := len(m.InterestingStates()); got != 4 {
		t.Errorf("InterestingStates = %d, want 4", got)
	}
	if m.StartTargetForSymbol(0) != NoState {
		t.Error("FD symbol must have no start target")
	}
	if m.StartTargetForSymbol(99) != NoState {
		t.Error("out-of-range symbol must have no start target")
	}
	if sym := m.ProducedSymbol(f.ord("a", "b")); m.StartTargetForSymbol(sym) != m.StateOf(f.ord("a", "b")) {
		t.Error("produced symbol must start at its ordering's state")
	}
	if m.ProducedSymbol(f.ord("a", "b", "c")) != -1 {
		t.Error("tested-only ordering must have no produced symbol")
	}
}
