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
//
// Each table is one row-major slab: the transition table has nSym 4-byte
// cells per state, the contains and subsumption matrices a fixed number
// of 64-bit words per state. An order resolves to its contains bit
// through a dense slice indexed by order.ID, so every hot operation is
// one index plus one load.
package dfsm

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"

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

	// Columns lists the interesting orders answerable by the contains
	// matrix (interesting NFSM states, i.e. O_I and their prefixes).
	Columns []order.ID

	// ordBit maps an ordering ID to its contains bit (-1: none); IDs past
	// the slice have no bit.
	ordBit []int32

	// trans is the total transition table, trans[s*nSym+sym]; symbols are
	// the NFSM's (FD sets first, then produced orders). contains has words
	// uint64s per state: bit c of row s is set iff column c is available
	// in s. subsume has subWords per state: bit b of row a is set iff b
	// dominates a — a's available orderings are a subset of b's now and
	// after every possible symbol sequence (the greatest simulation
	// preorder), the future-proof row-subset test plan pruning needs.
	trans                 []StateID
	contains, subsume     []uint64
	nSym, words, subWords int
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
	nSym, nFD := n.NumSymbols(), n.NumFDSymbols()
	m := &Machine{N: n, nSym: nSym}
	for _, st := range n.InterestingStates() {
		// The empty ordering is trivially satisfied everywhere and needs
		// no matrix column (Contains special-cases it).
		if st.Ord != order.EmptyID {
			m.Columns = append(m.Columns, st.Ord)
		}
	}
	m.ordBit = bitIndex(m.Columns)
	m.words = (len(m.Columns) + 63) / 64

	// A state set is keyed by its raw little-endian bytes, built in one
	// reused buffer: the index[string(kb)] lookup does not allocate, so
	// only a set seen for the first time costs anything (its key, its
	// Sets copy, its transition row).
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
		m.trans = append(m.trans, make([]StateID, nSym)...)
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
				// Produced symbol: only meaningful from the start
				// state (the ADT constructor); elsewhere it is the
				// identity, cf. Figure 10.
				next = append(next, n.StartTargetForSymbol(sym))
			} else {
				next = append(next, set...)
			}
			// add may grow the slab: resolve the target before indexing.
			to := add(eps.close(next))
			m.trans[int(cur)*nSym+sym] = to
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

// close expands the set with every state reachable via ε edges and
// returns it sorted, deduplicated. The result is valid until the next
// call.
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
	}
	slices.Sort(c.out)
	return c.out
}

// bitIndex maps each ID in cols to its position, and every other ID up
// to the largest to -1.
func bitIndex(cols []order.ID) []int32 {
	size := 0
	for _, id := range cols {
		size = max(size, int(id)+1)
	}
	idx := slices.Repeat([]int32{-1}, size)
	for i, id := range cols {
		idx[id] = int32(i)
	}
	return idx
}

// testBit and setBit address bit i of the slab row starting at word off.
func testBit(slab []uint64, off, i int) bool { return slab[off+i>>6]&(1<<(i&63)) != 0 }
func setBit(slab []uint64, off, i int)       { slab[off+i>>6] |= 1 << (i & 63) }

// bitOf returns the contains bit of ordering id, or -1.
func (m *Machine) bitOf(id order.ID) int {
	if uint(id) >= uint(len(m.ordBit)) {
		return -1
	}
	return int(m.ordBit[id])
}

func (m *Machine) precomputeContains() {
	m.contains = make([]uint64, len(m.Sets)*m.words)
	for i, set := range m.Sets {
		for _, s := range set {
			st := m.N.States[s]
			if c := m.bitOf(st.Ord); c >= 0 && st.Kind == nfsm.KindInteresting {
				setBit(m.contains, i*m.words, c)
			}
		}
	}
}

// precomputeSubsumption computes the greatest simulation preorder:
// R(a, b) starts as "row(a) ⊆ row(b)" and pairs are removed until R is
// closed under all transitions. The result makes SubsetOf sound for plan
// pruning: if a ⊑ b, then after any sequence of operators the orderings
// available from a remain a subset of those available from b.
func (m *Machine) precomputeSubsumption(limit int) {
	n, w := len(m.Sets), (len(m.Sets)+63)/64
	m.subWords, m.subsume = w, make([]uint64, n*w)
	// A degenerate machine starts from identity dominance, which is still
	// sound and survives refinement: there the quadratic simulation would
	// dominate preparation.
	degenerate := limit > 0 && n > limit
	for a := 0; a < n; a++ {
		setBit(m.subsume, a*w, a)
		for b := 0; b < n && !degenerate; b++ {
			if m.RowSubsetOf(StateID(a), StateID(b)) {
				setBit(m.subsume, a*w, b)
			}
		}
	}
	// Each round visits only the pairs still in R, the set bits of row a.
	// Only FD symbols are quantified: produced-order symbols are
	// constructor entry points from the start state, never transitions
	// applied to an existing plan's state (sorts re-enter through the
	// start state and depend only on the plan's FD mask, which is a
	// function of the relation subset).
	nFD := m.N.NumFDSymbols()
	for changed := true; changed; {
		changed = false
		for a := 0; a < n; a++ {
			row := m.subsume[a*w : (a+1)*w]
			for i, word := range row {
				for ; word != 0; word &= word - 1 {
					b := i*64 + bits.TrailingZeros64(word)
					for sym := 0; sym < nFD; sym++ {
						if !m.SubsetOf(m.Step(StateID(a), sym), m.Step(StateID(b), sym)) {
							row[i] &^= 1 << (b & 63)
							changed = true
							break
						}
					}
				}
			}
		}
	}
}

// NumStates returns the number of DFSM states including the start state.
func (m *Machine) NumStates() int { return len(m.Sets) }

// Contains reports whether ordering o is available in state s: the O(1)
// membership test of the LogicalOrderings ADT. Orderings outside the
// contains matrix — including any interned after Convert — are never
// available; the empty ordering always is.
func (m *Machine) Contains(s StateID, o order.ID) bool {
	return o == order.EmptyID || m.has(s, o)
}

// has tests ordering o's contains bit in state s's row.
func (m *Machine) has(s StateID, o order.ID) bool {
	c := m.bitOf(o)
	return c >= 0 && testBit(m.contains, int(s)*m.words, c)
}

// Step follows the transition for symbol sym: the O(1) infer operation.
func (m *Machine) Step(s StateID, sym int) StateID { return m.trans[int(s)*m.nSym+sym] }

// ProduceState returns the state after producing ordering o from scratch
// (the ADT constructor): one lookup from the start state. Returns Start
// itself when o is not a produced interesting order.
func (m *Machine) ProduceState(o order.ID) StateID {
	sym := m.N.ProducedSymbol(o)
	if sym < 0 {
		return Start
	}
	return m.Step(Start, sym)
}

// SubsetOf reports whether the orderings available in state a are a
// subset of those available in b — now and after every possible operator
// sequence (simulation preorder). This is the dominance test plan
// generators use to prune comparable plans; it is future-proof, unlike
// the plain row comparison (see RowSubsetOf).
func (m *Machine) SubsetOf(a, b StateID) bool {
	return testBit(m.subsume, int(a)*m.subWords, int(b))
}

// RowSubsetOf compares only the current contains-matrix rows. It is NOT
// sound for plan pruning (two states with equal rows can diverge under
// future FDs); exposed for inspection and ablation experiments.
func (m *Machine) RowSubsetOf(a, b StateID) bool {
	for i, x := range m.contains[int(a)*m.words : int(a+1)*m.words] {
		if x&^m.contains[int(b)*m.words+i] != 0 {
			return false
		}
	}
	return true
}

// PrecomputedBytes returns the memory consumed by the §5.5 tables: 4
// bytes per transition cell plus the contains bit rows (8 bytes per
// 64-column word per state). This is the "precomputed data" figure of
// the §6.2 experiment.
func (m *Machine) PrecomputedBytes() int {
	return 4*len(m.trans) + 8*len(m.contains)
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
			if testBit(m.contains, i*m.words, c) {
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
			t := m.Step(StateID(i), sym)
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
