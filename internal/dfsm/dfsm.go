// Package dfsm converts the NFSM of paper §5.3 into a deterministic FSM
// using the classic powerset construction (§5.4, proved correct for FSMs
// in the paper's appendix) and precomputes the two matrices of §5.5:
//
//   - the contains matrix: DFSM state × interesting order → bit, backing
//     the O(1) contains(ordering) test, and
//   - the transition table: DFSM state × symbol → DFSM state, backing the
//     O(1) inferNewLogicalOrderings(fdSet) operation and the O(1) ADT
//     constructor (via the artificial start edges).
//
// Transitions are total: a symbol with no outgoing NFSM edges from any
// member state is the identity ("no new orderings derivable"), matching
// the paper's Figure 10 where, e.g., produced-order columns of non-start
// rows map to the row itself.
package dfsm

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"orderopt/internal/bitset"
	"orderopt/internal/nfsm"
	"orderopt/internal/order"
)

// StateID identifies a DFSM state. Start (0) is the paper's "*" node.
type StateID int32

// Start is the DFSM start state (the ε-closure of q0, written "*").
const Start StateID = 0

// Machine is the deterministic FSM plus the §5.5 precomputed tables.
type Machine struct {
	N *nfsm.Machine

	// Sets holds, per DFSM state, the sorted NFSM member states. Kept for
	// inspection, golden tests and the CLI; plan generation never touches
	// it.
	Sets [][]nfsm.StateID

	// Trans is the total transition table: Trans[state][symbol]. Symbols
	// are the NFSM's: FD sets first, then produced orders.
	Trans [][]StateID

	// Columns lists the interesting orders answerable by the contains
	// matrix (interesting NFSM states, i.e. O_I and their prefixes).
	Columns []order.ID
	colOf   map[order.ID]int

	// GroupColumns lists the interesting groupings; their bits sit after
	// the ordering columns in the contains rows.
	GroupColumns []order.ID
	colOfGroup   map[order.ID]int

	// contains[state] has bit i set iff Columns[i] is available in that
	// state.
	contains []*bitset.Set

	// subsume[a] has bit b set iff state b dominates state a: a's
	// available orderings are a subset of b's now and after every
	// possible symbol sequence (the greatest simulation preorder).
	// Plan-pruning uses this: it is the future-proof version of the
	// row-subset test.
	subsume []*bitset.Set
}

// Options configures the conversion.
type Options struct {
	// MaxStates aborts the powerset construction when exceeded (the
	// conversion can in theory be exponential, §8). 0 means no limit.
	MaxStates int
	// MaxSimulationStates bounds the O(states²) subsumption precompute:
	// machines larger than this fall back to identity-only dominance
	// (still sound, just less pruning). 0 means no limit.
	MaxSimulationStates int
}

// Convert runs the powerset construction on n.
func Convert(n *nfsm.Machine, opt Options) (*Machine, error) {
	m := &Machine{N: n, colOf: make(map[order.ID]int), colOfGroup: make(map[order.ID]int)}
	for _, st := range n.InterestingStates() {
		if st.Ord == order.EmptyID {
			// The empty ordering is trivially satisfied everywhere and
			// needs no matrix column (Contains special-cases it).
			continue
		}
		if st.Grouping {
			m.colOfGroup[st.Ord] = len(m.GroupColumns)
			m.GroupColumns = append(m.GroupColumns, st.Ord)
			continue
		}
		m.colOf[st.Ord] = len(m.Columns)
		m.Columns = append(m.Columns, st.Ord)
	}

	nSym := n.NumSymbols()
	nFD := n.NumFDSymbols()

	// A state set is keyed by its raw little-endian bytes, built in one
	// reused buffer: the index[string(kb)] lookup does not allocate, so
	// only a set seen for the first time costs anything (its key, its
	// Sets copy, its Trans row).
	var kb []byte
	index := make(map[string]StateID)
	add := func(set []nfsm.StateID) StateID {
		kb = kb[:0]
		for _, s := range set {
			kb = binary.LittleEndian.AppendUint32(kb, uint32(s))
		}
		if id, ok := index[string(kb)]; ok {
			return id
		}
		id := StateID(len(m.Sets))
		index[string(kb)] = id
		m.Sets = append(m.Sets, slices.Clone(set))
		m.Trans = append(m.Trans, make([]StateID, nSym))
		return id
	}

	start := add([]nfsm.StateID{nfsm.StartState})
	eps := epsCloser{n: n, stamp: make([]uint32, len(n.States))}
	var next []nfsm.StateID
	for cur := start; int(cur) < len(m.Sets); cur++ {
		if opt.MaxStates > 0 && len(m.Sets) > opt.MaxStates {
			return nil, fmt.Errorf("dfsm: state limit %d exceeded", opt.MaxStates)
		}
		set := m.Sets[cur]
		for sym := 0; sym < nSym; sym++ {
			next = next[:0]
			if sym < nFD {
				// FD-set symbol: every member keeps itself (implicit
				// self-loop — previously derivable orderings stay
				// derivable) and contributes its edge targets.
				next = append(next, set...)
				for _, s := range set {
					if s == nfsm.StartState {
						continue
					}
					next = append(next, n.FDTargets(s, sym)...)
				}
			} else if slices.Contains(set, nfsm.StartState) {
				// Produced symbol (ordering or grouping): only
				// meaningful from the start state (the ADT
				// constructor); elsewhere it is the identity, cf.
				// Figure 10.
				next = append(next, n.StartTargetForSymbol(sym))
			} else {
				next = append(next, set...)
			}
			m.Trans[cur][sym] = add(eps.close(next))
		}
	}

	m.precomputeContains()
	m.precomputeSubsumption(opt.MaxSimulationStates)
	return m, nil
}

// epsCloser computes ε-closures into one reused buffer.
type epsCloser struct {
	n     *nfsm.Machine
	stamp []uint32 // per NFSM state; == gen: already in out
	gen   uint32
	out   []nfsm.StateID
}

// close expands the set with every state reachable via ε edges (prefix
// and grouping successors) and returns it sorted, deduplicated. The
// result is valid until the next call.
func (c *epsCloser) close(set []nfsm.StateID) []nfsm.StateID {
	c.gen++
	c.out = c.out[:0]
	push := func(s nfsm.StateID) {
		if s != nfsm.NoState && c.stamp[s] != c.gen {
			c.stamp[s] = c.gen
			c.out = append(c.out, s)
		}
	}
	for _, s := range set {
		push(s)
	}
	for i := 0; i < len(c.out); i++ {
		push(c.n.Eps(c.out[i]))
		push(c.n.EpsGroup(c.out[i]))
	}
	slices.Sort(c.out)
	return c.out
}

func (m *Machine) precomputeContains() {
	m.contains = make([]*bitset.Set, len(m.Sets))
	for i, set := range m.Sets {
		row := bitset.New(len(m.Columns) + len(m.GroupColumns))
		for _, s := range set {
			st := m.N.States[s]
			if st.Kind != nfsm.KindInteresting {
				continue
			}
			if st.Grouping {
				if col, ok := m.colOfGroup[st.Ord]; ok {
					row.Add(len(m.Columns) + col)
				}
				continue
			}
			if col, ok := m.colOf[st.Ord]; ok {
				row.Add(col)
			}
		}
		m.contains[i] = row
	}
}

// precomputeSubsumption computes the greatest simulation preorder:
// R(a, b) starts as "row(a) ⊆ row(b)" and pairs are removed until R is
// closed under all transitions. The result makes SubsetOf sound for plan
// pruning: if a ⊑ b, then after any sequence of operators the orderings
// available from a remain a subset of those available from b.
func (m *Machine) precomputeSubsumption(limit int) {
	n := len(m.Sets)
	m.subsume = make([]*bitset.Set, n)
	if limit > 0 && n > limit {
		// Degenerate machine: the quadratic simulation would dominate
		// preparation time. Identity dominance is still sound.
		for a := 0; a < n; a++ {
			m.subsume[a] = bitset.FromInts(a)
		}
		return
	}
	for a := 0; a < n; a++ {
		m.subsume[a] = bitset.New(n)
		for b := 0; b < n; b++ {
			if m.contains[a].SubsetOf(m.contains[b]) {
				m.subsume[a].Add(b)
			}
		}
	}
	// Only FD symbols are quantified: produced-order symbols are
	// constructor entry points from the start state, never transitions
	// applied to an existing plan's state (sorts re-enter through the
	// start state and depend only on the plan's FD mask, which is a
	// function of the relation subset).
	nSym := m.N.NumFDSymbols()
	for changed := true; changed; {
		changed = false
		for a := 0; a < n; a++ {
			row := m.subsume[a]
			row.ForEach(func(b int) bool {
				if a == b {
					return true
				}
				for sym := 0; sym < nSym; sym++ {
					na, nb := m.Trans[a][sym], m.Trans[b][sym]
					if na == StateID(a) && nb == StateID(b) {
						continue
					}
					if !m.subsume[na].Contains(int(nb)) {
						row.Remove(b)
						changed = true
						return true
					}
				}
				return true
			})
		}
	}
}

// NumStates returns the number of DFSM states including the start state.
func (m *Machine) NumStates() int { return len(m.Sets) }

// Contains reports whether ordering o is available in state s: the O(1)
// membership test of the LogicalOrderings ADT. Orderings outside the
// contains matrix are never available; the empty ordering always is.
func (m *Machine) Contains(s StateID, o order.ID) bool {
	if o == order.EmptyID {
		return true
	}
	col, ok := m.colOf[o]
	return ok && m.contains[s].Contains(col)
}

// Column returns the contains-matrix column of o, or -1. Plan generators
// can cache the column for repeated tests.
func (m *Machine) Column(o order.ID) int {
	if c, ok := m.colOf[o]; ok {
		return c
	}
	return -1
}

// ContainsColumn is Contains with a pre-resolved column index.
func (m *Machine) ContainsColumn(s StateID, col int) bool {
	return m.contains[s].Contains(col)
}

// Row returns the contains-matrix row of state s (do not modify).
func (m *Machine) Row(s StateID) *bitset.Set { return m.contains[s] }

// ContainsGrouping reports whether the grouping g (canonical ID from
// order.GroupingOf) is available in state s: the stream is clustered by
// those attributes. O(1) bit lookup.
func (m *Machine) ContainsGrouping(s StateID, g order.ID) bool {
	col, ok := m.colOfGroup[g]
	return ok && m.contains[s].Contains(len(m.Columns)+col)
}

// ProduceGroupingState returns the state after producing grouping g
// from scratch (e.g. the output of a hash group). Returns Start when g
// is not a produced grouping.
func (m *Machine) ProduceGroupingState(g order.ID) StateID {
	if sym := m.N.ProducedGroupingSymbol(g); sym >= 0 {
		return m.Trans[Start][sym]
	}
	return Start
}

// Step follows the transition for symbol sym: the O(1) infer operation.
func (m *Machine) Step(s StateID, sym int) StateID { return m.Trans[s][sym] }

// ProduceState returns the state after producing ordering o from scratch
// (the ADT constructor): one lookup from the start state. Returns Start
// itself when o is not a produced interesting order.
func (m *Machine) ProduceState(o order.ID) StateID {
	if sym := m.N.ProducedSymbol(o); sym >= 0 {
		return m.Trans[Start][sym]
	}
	return Start
}

// SubsetOf reports whether the orderings available in state a are a
// subset of those available in b — now and after every possible operator
// sequence (simulation preorder). This is the dominance test plan
// generators use to prune comparable plans; it is future-proof, unlike
// the plain row comparison (see RowSubsetOf).
func (m *Machine) SubsetOf(a, b StateID) bool {
	return m.subsume[a].Contains(int(b))
}

// RowSubsetOf compares only the current contains-matrix rows. It is NOT
// sound for plan pruning (two states with equal rows can diverge under
// future FDs); exposed for inspection and ablation experiments.
func (m *Machine) RowSubsetOf(a, b StateID) bool {
	return m.contains[a].SubsetOf(m.contains[b])
}

// PrecomputedBytes returns the memory consumed by the §5.5 tables: 4
// bytes per transition cell plus the contains bit rows (8 bytes per
// 64-column word per state). This is the "precomputed data" figure of
// the §6.2 experiment.
func (m *Machine) PrecomputedBytes() int {
	bytes := 0
	for _, row := range m.Trans {
		bytes += 4 * len(row)
	}
	for _, row := range m.contains {
		bytes += row.Bytes()
	}
	return bytes
}

// Dump renders the machine like the paper's Figures 8–10: the state
// sets, the contains matrix and the transition table.
func (m *Machine) Dump() string {
	n := m.N
	var b strings.Builder
	fmt.Fprintf(&b, "DFSM: %d states, %d symbols\n", len(m.Sets), n.NumSymbols())
	for i, set := range m.Sets {
		if StateID(i) == Start {
			b.WriteString("  *: {q0}\n")
			continue
		}
		var parts []string
		for _, s := range set {
			parts = append(parts, n.In.Format(n.Reg, n.States[s].Ord))
		}
		fmt.Fprintf(&b, "  %d: {%s}\n", i, strings.Join(parts, ", "))
	}
	b.WriteString("contains matrix:\n")
	for i := range m.Sets {
		if StateID(i) == Start {
			continue
		}
		var parts []string
		for c, o := range m.Columns {
			v := "0"
			if m.contains[i].Contains(c) {
				v = "1"
			}
			parts = append(parts, fmt.Sprintf("%s=%s", n.In.Format(n.Reg, o), v))
		}
		fmt.Fprintf(&b, "  %d: %s\n", i, strings.Join(parts, " "))
	}
	b.WriteString("transition table:\n")
	symName := func(sym int) string {
		if sym < n.NumFDSymbols() {
			return n.FDSets[sym].Format(n.Reg)
		}
		return n.In.Format(n.Reg, n.Produced[sym-n.NumFDSymbols()])
	}
	for i := range m.Sets {
		name := fmt.Sprintf("%d", i)
		if StateID(i) == Start {
			name = "*"
		}
		var parts []string
		for sym := 0; sym < n.NumSymbols(); sym++ {
			t := m.Trans[i][sym]
			tn := fmt.Sprintf("%d", t)
			if t == Start {
				tn = "*"
			}
			parts = append(parts, fmt.Sprintf("%s→%s", symName(sym), tn))
		}
		fmt.Fprintf(&b, "  %s: %s\n", name, strings.Join(parts, "  "))
	}
	return b.String()
}
