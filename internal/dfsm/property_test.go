package dfsm

import (
	"math/rand"
	"testing"

	"orderopt/internal/nfsm"
	"orderopt/internal/order"
)

// randomMachine builds a DFSM from random interesting orders and FD
// sets (shared helper for the property tests below).
func randomMachine(t *testing.T, rng *rand.Rand) (*Machine, *fixture) {
	t.Helper()
	f := newFixture()
	names := []string{"a", "b", "c", "d"}
	attrs := make([]order.Attr, len(names))
	for i, n := range names {
		attrs[i] = f.reg.Attr(n)
	}
	var produced, tested []order.ID
	for i := 0; i < 2+rng.Intn(3); i++ {
		perm := rng.Perm(len(attrs))
		k := 1 + rng.Intn(2)
		seq := make([]order.Attr, 0, k)
		for _, p := range perm[:k] {
			seq = append(seq, attrs[p])
		}
		o := f.in.Intern(seq)
		if rng.Intn(4) == 0 {
			tested = append(tested, o)
		} else {
			produced = append(produced, o)
		}
	}
	if len(produced) == 0 {
		produced = append(produced, f.ord("a"))
	}
	var sets []order.FDSet
	for i := 0; i < 1+rng.Intn(3); i++ {
		var fds []order.FD
		for j := 0; j < 1+rng.Intn(2); j++ {
			x, y := attrs[rng.Intn(len(attrs))], attrs[rng.Intn(len(attrs))]
			switch rng.Intn(3) {
			case 0:
				if x != y {
					fds = append(fds, order.NewFD(y, x))
				}
			case 1:
				if x != y {
					fds = append(fds, order.NewEquation(x, y))
				}
			default:
				fds = append(fds, order.NewConstant(x))
			}
		}
		if len(fds) > 0 {
			sets = append(sets, order.NewFDSet(fds...))
		}
	}
	n, err := nfsm.Build(nfsm.Input{
		Reg: f.reg, In: f.in,
		Produced: produced, Tested: tested, FDSets: sets,
		IncludeEmpty: rng.Intn(2) == 0,
	}, nfsm.AllPruning())
	if err != nil {
		t.Fatal(err)
	}
	m, err := Convert(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m, f
}

// The subsumption relation must be a preorder (reflexive, transitive)
// and must refine the row comparison (a ⊑ b ⇒ row(a) ⊆ row(b)).
func TestSubsumptionIsPreorder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		m, _ := randomMachine(t, rng)
		n := m.NumStates()
		for a := 0; a < n; a++ {
			if !m.SubsetOf(StateID(a), StateID(a)) {
				t.Fatalf("trial %d: subsumption not reflexive at %d", trial, a)
			}
			for b := 0; b < n; b++ {
				if m.SubsetOf(StateID(a), StateID(b)) && !m.RowSubsetOf(StateID(a), StateID(b)) {
					t.Fatalf("trial %d: %d ⊑ %d but rows are not subset", trial, a, b)
				}
				for c := 0; c < n; c++ {
					if m.SubsetOf(StateID(a), StateID(b)) && m.SubsetOf(StateID(b), StateID(c)) &&
						!m.SubsetOf(StateID(a), StateID(c)) {
						t.Fatalf("trial %d: subsumption not transitive: %d ⊑ %d ⊑ %d", trial, a, b, c)
					}
				}
			}
		}
	}
}

// Subsumption must be closed under transitions: if a ⊑ b then after any
// FD symbol, step(a) ⊑ step(b) — the property that makes dominance
// pruning sound.
func TestSubsumptionClosedUnderTransitions(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 60; trial++ {
		m, _ := randomMachine(t, rng)
		n := m.NumStates()
		nFD := m.N.NumFDSymbols()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if !m.SubsetOf(StateID(a), StateID(b)) {
					continue
				}
				for sym := 0; sym < nFD; sym++ {
					na, nb := m.Step(StateID(a), sym), m.Step(StateID(b), sym)
					if !m.SubsetOf(na, nb) {
						t.Fatalf("trial %d: %d ⊑ %d broken by symbol %d: %d ⋢ %d",
							trial, a, b, sym, na, nb)
					}
				}
			}
		}
	}
}

// Transitions must be monotone: applying an FD set never loses an
// available interesting order (Ω(O, F) ⊇ O).
func TestTransitionsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 80; trial++ {
		m, _ := randomMachine(t, rng)
		n := m.NumStates()
		nFD := m.N.NumFDSymbols()
		for s := 0; s < n; s++ {
			for sym := 0; sym < nFD; sym++ {
				next := m.Step(StateID(s), sym)
				if !m.RowSubsetOf(StateID(s), next) {
					t.Fatalf("trial %d: transition lost orderings: state %d sym %d", trial, s, sym)
				}
				// Applying the same FD set twice is idempotent.
				if m.Step(next, sym) != next {
					t.Fatalf("trial %d: transition not idempotent: state %d sym %d", trial, s, sym)
				}
			}
		}
	}
}
