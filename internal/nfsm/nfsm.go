// Package nfsm constructs the non-deterministic finite state machine of
// paper §5.3: one node per ordering in the (pruned) closure Ω(O_I, F),
// ε-edges to prefixes, edges labelled with the FD sets introduced by
// algebraic operators, and an artificial start node whose outgoing edges
// are labelled with the produced interesting orders. The pruning
// techniques of §5.7 (functional-dependency pruning, merging and pruning
// of artificial nodes) are implemented here and individually switchable.
package nfsm

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"orderopt/internal/bitset"
	"orderopt/internal/order"
)

// StateID identifies a state of the NFSM. StartState (0) is the
// artificial start node q0.
type StateID int32

// StartState is q0, the artificial start node (§5.3).
const StartState StateID = 0

// NoState marks the absence of a state (e.g. no ε successor).
const NoState StateID = -1

// Kind classifies NFSM states.
type Kind uint8

const (
	// KindStart marks the artificial start node q0.
	KindStart Kind = iota
	// KindInteresting marks states for interesting orders (O_I) and
	// their prefixes; these appear in the precomputed contains matrix.
	KindInteresting
	// KindArtificial marks states only needed for the construction
	// (Ω(O_I, F) \ O_I); they may be merged and pruned (§5.7).
	KindArtificial
)

// State is one NFSM node.
type State struct {
	ID       StateID
	Ord      order.ID // the ordering this state represents (not q0)
	Kind     Kind
	Produced bool // ∈ O_P: reachable from q0 via an artificial edge
}

// Input is the outcome of the paper's step 1 ("determine the input"):
// the interesting orders, partitioned into produced (O_P) and tested-only
// (O_T), and the FD sets of all operators.
type Input struct {
	Reg      *order.Registry
	In       *order.Interner
	Produced []order.ID // O_P: produced (and possibly also tested)
	Tested   []order.ID // O_T: only tested for
	FDSets   []order.FDSet
	// IncludeEmpty adds a produced state for the empty ordering: table
	// scans emit it (§5.6, "either an empty ordering or the ordering
	// resulting from the operator"), and constant dependencies ∅ → x
	// can then derive (x) from an unordered stream after a selection
	// x = const.
	IncludeEmpty bool
}

// Options switches the §5.7 pruning techniques individually so their
// effect can be measured (the §6.2 experiment) and so the unpruned
// figures of the paper can be reproduced exactly.
type Options struct {
	// PruneFDs removes dependencies that can never lead to an
	// interesting order (step 2b).
	PruneFDs bool
	// MergeArtificial merges artificial nodes that behave identically
	// (step 2d, first heuristic).
	MergeArtificial bool
	// PruneArtificial removes artificial nodes that reach interesting
	// nodes only through ε edges (step 2d, second heuristic).
	PruneArtificial bool
	// LengthCutoff truncates derived orderings at the length of the
	// longest interesting order.
	LengthCutoff bool
	// PrefixViability keeps a derived ordering only when its prefix is,
	// modulo equivalence classes, a prefix of an interesting order.
	PrefixViability bool
	// DropInertSymbols removes FD-set symbols whose edges never leave a
	// node's ε-closure; applying such an operator is the identity
	// transition. This is an exact, graph-level variant of the paper's
	// Ω-based dependency pruning.
	DropInertSymbols bool
}

// AllPruning enables every reduction technique (the paper's default).
func AllPruning() Options {
	return Options{
		PruneFDs:         true,
		MergeArtificial:  true,
		PruneArtificial:  true,
		LengthCutoff:     true,
		PrefixViability:  true,
		DropInertSymbols: true,
	}
}

// NoPruning disables every reduction technique (used for the unpruned
// figures and the §6.2 comparison).
func NoPruning() Options { return Options{} }

// Machine is the constructed NFSM. Edge storage is split by label kind:
// eps holds the single ε successor per state (the immediate prefix), out
// holds the FD-set labelled edges, and startEdges holds the artificial
// edges leaving q0. Self-loops for FD symbols are implicit: every state
// trivially derives itself under any FD set.
type Machine struct {
	Reg *order.Registry
	In  *order.Interner

	// Symbols: FD-set symbols first (0..len(FDSets)-1), then one
	// produced symbol per entry of Produced.
	FDSets   []order.FDSet
	Produced []order.ID

	// FDSymbol maps the caller's original FD-set index to its symbol, or
	// -1 when the whole set was pruned (identity transition).
	FDSymbol []int

	States []State
	eps    []StateID // per state: prefix ε successor or NoState
	out    [][]StateID

	start map[order.ID]StateID // produced ordering → entry state
	byOrd map[order.ID]StateID

	// Stats filled during construction.
	PrunedFDs    int // individual dependencies removed in step 2b
	MergedNodes  int // artificial nodes merged away
	PrunedNodes  int // artificial nodes pruned away
	InertSymbols int // FD-set symbols dropped as identity
}

// NumStates returns the number of states including q0.
func (m *Machine) NumStates() int { return len(m.States) }

// NumFDSymbols returns the number of FD-set symbols in the alphabet.
func (m *Machine) NumFDSymbols() int { return len(m.FDSets) }

// NumSymbols returns the total alphabet size (FD sets + produced orders).
func (m *Machine) NumSymbols() int { return len(m.FDSets) + len(m.Produced) }

// Eps returns the prefix ε successor of s, or NoState.
func (m *Machine) Eps(s StateID) StateID { return m.eps[s] }

// FDTargets returns the states reachable from s via one edge labelled
// with FD symbol sym (the implicit self-loop not included).
func (m *Machine) FDTargets(s StateID, sym int) []StateID {
	return m.out[int(s)*len(m.FDSets)+sym]
}

// StartTarget returns the entry state for a produced ordering, or
// NoState if the ordering is not in O_P.
func (m *Machine) StartTarget(o order.ID) StateID {
	if t, ok := m.start[o]; ok {
		return t
	}
	return NoState
}

// StartTargetForSymbol resolves a produced symbol to its entry state.
func (m *Machine) StartTargetForSymbol(sym int) StateID {
	i := sym - len(m.FDSets)
	if i < 0 || i >= len(m.Produced) {
		return NoState
	}
	return m.StartTarget(m.Produced[i])
}

// StateOf returns the state representing ordering o, or NoState.
func (m *Machine) StateOf(o order.ID) StateID {
	if s, ok := m.byOrd[o]; ok {
		return s
	}
	return NoState
}

// ProducedSymbol returns the symbol index of a produced ordering, or -1.
func (m *Machine) ProducedSymbol(o order.ID) int {
	if i := slices.Index(m.Produced, o); i >= 0 {
		return len(m.FDSets) + i
	}
	return -1
}

// InterestingStates returns the states of kind KindInteresting sorted by
// ordering; these form the columns of the precomputed contains matrix.
func (m *Machine) InterestingStates() []State {
	var out []State
	for _, s := range m.States {
		if s.Kind == KindInteresting {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b State) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Build runs the preparation steps 2(a)–2(e) of Figure 3.
func Build(input Input, opt Options) (*Machine, error) {
	if input.Reg == nil || input.In == nil {
		return nil, fmt.Errorf("nfsm: Input.Reg and Input.In are required")
	}
	b := &builder{input: input, opt: opt}
	return b.build()
}

type builder struct {
	input Input
	opt   Options

	interesting []order.ID // O_I = O_P ∪ O_T, deduplicated
	producedSet map[order.ID]bool
	fdSets      []order.FDSet // pruned, deduplicated; symbol i
	fdSymbol    []int         // original index → symbol or -1
	deriver     *order.Deriver

	prunedFDs int
}

func (b *builder) build() (*Machine, error) {
	if err := b.determineInput(); err != nil {
		return nil, err
	}
	b.pruneFDs()
	b.setupDeriver()

	m := &Machine{
		Reg:       b.input.Reg,
		In:        b.input.In,
		FDSets:    b.fdSets,
		FDSymbol:  b.fdSymbol,
		start:     make(map[order.ID]StateID),
		byOrd:     make(map[order.ID]StateID),
		PrunedFDs: b.prunedFDs,
	}

	// Step 2a: nodes = pruned closure Ω(O_I, F), plus q0. With the
	// empty ordering enabled, everything constant FDs can derive from an
	// unordered stream joins the closure seed.
	allFDs := order.FDsOf(b.fdSets)
	seed := b.interesting
	if b.input.IncludeEmpty {
		seed = append(append([]order.ID(nil), seed...), b.emptyDerivations(allFDs)...)
	}
	nodes := b.deriver.Closure(seed, allFDs)
	interestingSet := make(map[order.ID]bool, len(b.interesting))
	for _, o := range b.interesting {
		interestingSet[o] = true
		// Prefixes of interesting orders are also answerable by the
		// contains matrix (cf. Figure 9, which lists (a)).
		for _, p := range b.input.In.Prefixes(o) {
			interestingSet[p] = true
		}
	}
	m.States = append(m.States, State{ID: StartState, Kind: KindStart})
	var emptyState StateID = NoState
	if b.input.IncludeEmpty {
		emptyState = StateID(len(m.States))
		m.States = append(m.States, State{
			ID: emptyState, Ord: order.EmptyID, Kind: KindInteresting, Produced: true,
		})
		m.byOrd[order.EmptyID] = emptyState
	}
	for _, o := range nodes {
		kind := KindArtificial
		if interestingSet[o] {
			kind = KindInteresting
		}
		id := StateID(len(m.States))
		m.States = append(m.States, State{
			ID: id, Ord: o, Kind: kind, Produced: b.producedSet[o],
		})
		m.byOrd[o] = id
	}

	// Step 2c: edges. ε to the immediate prefix; FD-set edges to every
	// ordering derivable under that set (closure, §2's ⊢ relation),
	// excluding the ε-closure of the source (implicit).
	nFD := len(b.fdSets)
	m.eps = make([]StateID, len(m.States))
	m.out = make([][]StateID, len(m.States)*nFD)
	m.eps[StartState] = NoState
	for _, st := range m.States[1:] {
		if st.ID == emptyState {
			// The empty ordering's FD edges derive orderings from an
			// unordered stream (constants only can apply).
			m.eps[st.ID] = NoState
			for sym, set := range b.fdSets {
				var targets []StateID
				for _, t := range b.deriver.Closure(b.emptyDerivations(set.FDs), set.FDs) {
					ts, ok := m.byOrd[t]
					if !ok {
						return nil, fmt.Errorf("nfsm: empty-derived ordering %s missing from node set",
							b.input.In.Format(b.input.Reg, t))
					}
					targets = append(targets, ts)
				}
				sortStates(targets)
				m.out[int(st.ID)*nFD+sym] = targets
			}
			continue
		}
		seq := b.input.In.Seq(st.Ord)
		if len(seq) > 1 {
			m.eps[st.ID] = m.byOrd[b.input.In.Prefix(st.Ord)]
		} else if emptyState != NoState {
			// Every ordering trivially satisfies the empty ordering.
			m.eps[st.ID] = emptyState
		} else {
			m.eps[st.ID] = NoState
		}
		inEps := map[order.ID]bool{st.Ord: true}
		for _, p := range b.input.In.Prefixes(st.Ord) {
			inEps[p] = true
		}
		for sym, set := range b.fdSets {
			var targets []StateID
			for _, t := range b.deriver.Closure([]order.ID{st.Ord}, set.FDs) {
				if inEps[t] {
					continue
				}
				ts, ok := m.byOrd[t]
				if !ok {
					return nil, fmt.Errorf("nfsm: derived ordering %s missing from node set",
						b.input.In.Format(b.input.Reg, t))
				}
				targets = append(targets, ts)
			}
			sortStates(targets)
			m.out[int(st.ID)*nFD+sym] = targets
		}
	}

	// Step 2d: merge and prune artificial nodes.
	if b.opt.MergeArtificial || b.opt.PruneArtificial {
		reduceArtificial(m, b.opt)
	}

	// Step 2e: artificial start edges for the produced orders (and the
	// empty ordering when enabled: table scans enter there).
	if b.input.IncludeEmpty {
		m.Produced = append(m.Produced, order.EmptyID)
		m.start[order.EmptyID] = m.byOrd[order.EmptyID]
	}
	for _, o := range b.producedList() {
		m.Produced = append(m.Produced, o)
		m.start[o] = m.byOrd[o]
	}

	if b.opt.DropInertSymbols {
		dropInertSymbols(m)
	}
	return m, nil
}

// emptyDerivations returns everything a single FD application can derive
// from the empty ordering (only dependencies with empty determinants —
// constants — apply to an unordered stream).
func (b *builder) emptyDerivations(fds []order.FD) []order.ID {
	var out []order.ID
	for _, fd := range fds {
		out = append(out, b.deriver.Derive(order.EmptyID, fd)...)
	}
	return out
}

func (b *builder) producedList() []order.ID {
	out := make([]order.ID, 0, len(b.producedSet))
	for o := range b.producedSet {
		out = append(out, o)
	}
	b.input.In.SortIDs(out)
	return out
}

// determineInput deduplicates the interesting orders and FD sets.
func (b *builder) determineInput() error {
	b.producedSet = make(map[order.ID]bool)
	seen := make(map[order.ID]bool)
	add := func(o order.ID, produced bool) error {
		if o == order.EmptyID {
			return fmt.Errorf("nfsm: the empty ordering cannot be an interesting order")
		}
		if produced {
			b.producedSet[o] = true
		}
		if !seen[o] {
			seen[o] = true
			b.interesting = append(b.interesting, o)
		}
		return nil
	}
	for _, o := range b.input.Produced {
		if err := add(o, true); err != nil {
			return err
		}
	}
	for _, o := range b.input.Tested {
		if err := add(o, false); err != nil {
			return err
		}
	}
	if len(b.interesting) == 0 {
		return fmt.Errorf("nfsm: no interesting orders")
	}
	b.input.In.SortIDs(b.interesting)

	// Deduplicate FD sets by canonical key; remember each original
	// index's symbol.
	b.fdSymbol = make([]int, len(b.input.FDSets))
	byKey := make(map[string]int)
	for i, s := range b.input.FDSets {
		k := s.Key()
		if sym, ok := byKey[k]; ok {
			b.fdSymbol[i] = sym
			continue
		}
		sym := len(b.fdSets)
		byKey[k] = sym
		b.fdSymbol[i] = sym
		b.fdSets = append(b.fdSets, order.NewFDSet(s.FDs...))
	}
	return nil
}

// pruneFDs is step 2b: dependencies whose attributes cannot contribute to
// any interesting order are removed. Relevance propagates through
// equations (a = b with relevant a makes b relevant, because a chain of
// equations can rewrite orderings step by step).
func (b *builder) pruneFDs() {
	if !b.opt.PruneFDs {
		return
	}
	relevant := bitset.New(b.input.Reg.Len())
	for _, o := range b.interesting {
		for _, a := range b.input.In.Seq(o) {
			relevant.Add(int(a))
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range b.fdSets {
			for _, fd := range s.FDs {
				if fd.Kind != order.KindEquation {
					continue
				}
				l, r := relevant.Contains(int(fd.Left)), relevant.Contains(int(fd.Right))
				if l != r {
					relevant.Add(int(fd.Left))
					relevant.Add(int(fd.Right))
					changed = true
				}
			}
		}
	}
	keep := func(fd order.FD) bool {
		switch fd.Kind {
		case order.KindEquation:
			return relevant.Contains(int(fd.Left)) && relevant.Contains(int(fd.Right))
		case order.KindConstant:
			return relevant.Contains(int(fd.Dependent))
		default:
			return relevant.Contains(int(fd.Dependent)) && fd.Determinant.SubsetOf(relevant)
		}
	}
	for i, s := range b.fdSets {
		kept := s.FDs[:0]
		for _, fd := range s.FDs {
			if keep(fd) {
				kept = append(kept, fd)
			} else {
				b.prunedFDs++
			}
		}
		b.fdSets[i].FDs = kept
	}
}

func (b *builder) setupDeriver() {
	var reps []order.Attr
	var index *order.PrefixIndex
	maxEff := 0
	if b.opt.PrefixViability || b.opt.LengthCutoff {
		reps = order.EquivClasses(b.input.Reg.Len(), b.fdSets)
		ix := order.NewPrefixIndex(b.input.In, b.interesting, reps)
		if b.opt.PrefixViability {
			index = ix
		}
		if b.opt.LengthCutoff {
			maxEff = ix.MaxLen()
		}
	}
	b.deriver = &order.Deriver{In: b.input.In, Reps: reps, Index: index, MaxLen: maxEff}
}

func sortStates(s []StateID) {
	slices.Sort(s)
}

// DOT renders the machine as a Graphviz digraph: artificial nodes
// dashed, ε edges dotted, FD edges labelled with their dependency sets.
func (m *Machine) DOT() string {
	var b strings.Builder
	b.WriteString("digraph nfsm {\n  rankdir=LR;\n  q0 [shape=point];\n")
	name := func(s StateID) string {
		if s == StartState {
			return "q0"
		}
		return fmt.Sprintf("%q", m.In.Format(m.Reg, m.States[s].Ord))
	}
	for _, st := range m.States {
		if st.Kind == KindArtificial {
			fmt.Fprintf(&b, "  %s [style=dashed];\n", name(st.ID))
		}
	}
	for _, o := range m.Produced {
		fmt.Fprintf(&b, "  q0 -> %s [label=%q];\n",
			name(m.StartTarget(o)), m.In.Format(m.Reg, o))
	}
	for _, st := range m.States {
		if st.Kind == KindStart {
			continue
		}
		if e := m.Eps(st.ID); e != NoState {
			fmt.Fprintf(&b, "  %s -> %s [label=\"ε\", style=dotted];\n", name(st.ID), name(e))
		}
		for sym := range m.FDSets {
			for _, t := range m.FDTargets(st.ID, sym) {
				fmt.Fprintf(&b, "  %s -> %s [label=%q];\n",
					name(st.ID), name(t), m.FDSets[sym].Format(m.Reg))
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Dump renders the machine in a readable textual form (used by the
// orderopt CLI and golden tests).
func (m *Machine) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "NFSM: %d states, %d FD symbols, %d produced symbols\n",
		len(m.States), len(m.FDSets), len(m.Produced))
	for _, st := range m.States {
		switch st.Kind {
		case KindStart:
			sb.WriteString("  q0 (start)\n")
			for _, o := range m.Produced {
				fmt.Fprintf(&sb, "    --[%s]--> %s\n",
					m.In.Format(m.Reg, o), m.In.Format(m.Reg, o))
			}
		default:
			tag := ""
			if st.Kind == KindArtificial {
				tag = " (artificial)"
			}
			if st.Produced {
				tag += " (produced)"
			}
			fmt.Fprintf(&sb, "  %s%s\n", m.In.Format(m.Reg, st.Ord), tag)
			if e := m.eps[st.ID]; e != NoState {
				fmt.Fprintf(&sb, "    --ε--> %s\n", m.In.Format(m.Reg, m.States[e].Ord))
			}
			for sym := range m.FDSets {
				for _, t := range m.FDTargets(st.ID, sym) {
					fmt.Fprintf(&sb, "    --%s--> %s\n",
						m.FDSets[sym].Format(m.Reg), m.In.Format(m.Reg, m.States[t].Ord))
				}
			}
		}
	}
	return sb.String()
}
