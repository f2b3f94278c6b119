package nfsm

import (
	"strconv"
	"strings"

	"orderopt/internal/order"
)

// reduceArtificial applies the two §5.7 node heuristics to fixpoint:
//
//  1. merge artificial nodes that behave exactly the same (identical ε
//     successor and identical FD-edge targets per symbol), and
//  2. prune artificial nodes that can reach important nodes only through
//     ε edges (their own FD edges derive nothing beyond what their
//     prefixes derive); incoming edges are redirected to the ε successor.
//
// Interesting nodes and q0 are never touched, so plan generation is
// unaffected (§5.7: artificial nodes are invisible outside the NFSM).
func reduceArtificial(m *Machine, opt Options) {
	r := &reducer{m: m, redirect: make([]StateID, len(m.States))}
	for i := range r.redirect {
		r.redirect[i] = StateID(i)
	}
	for {
		changed := false
		if opt.MergeArtificial && r.mergeOnce() {
			changed = true
		}
		if opt.PruneArtificial && r.pruneOnce() {
			changed = true
		}
		if !changed {
			break
		}
	}
	r.compact()
}

type reducer struct {
	m        *Machine
	redirect []StateID // per state: itself (alive), another state, or NoState
}

func (r *reducer) resolve(s StateID) StateID {
	for s != NoState && r.redirect[s] != s {
		s = r.redirect[s]
	}
	return s
}

func (r *reducer) alive(s StateID) bool { return r.redirect[s] == s }

// normalize rewrites all edges of alive states through the redirect map,
// dropping vanished targets, self-targets and duplicates.
func (r *reducer) normalize() {
	m := r.m
	nFD := len(m.FDSets)
	for _, st := range m.States {
		if !r.alive(st.ID) {
			continue
		}
		if e := m.eps[st.ID]; e != NoState {
			m.eps[st.ID] = r.resolve(e)
		}
		for sym := 0; sym < nFD; sym++ {
			idx := int(st.ID)*nFD + sym
			targets := m.out[idx]
			kept := targets[:0]
			seen := map[StateID]bool{st.ID: true}
			for _, t := range targets {
				t = r.resolve(t)
				if t == NoState || seen[t] {
					continue
				}
				seen[t] = true
				kept = append(kept, t)
			}
			sortStates(kept)
			m.out[idx] = kept
		}
	}
}

// mergeOnce merges artificial states that behave exactly the same using
// partition refinement (bisimulation minimization): all artificial
// states start in one block, every other state is a singleton, and
// blocks are split by their (ε-block, per-symbol target-block set)
// signature until stable. Artificial states sharing a final block are
// indistinguishable — including mutually-referencing twins such as
// (a,x)/(a,y) under {a→x, a→y} — and are merged.
func (r *reducer) mergeOnce() bool {
	r.normalize()
	m := r.m
	nFD := len(m.FDSets)

	block := make([]int, len(m.States))
	nBlocks := 0
	artBlock := -1
	for _, st := range m.States {
		if !r.alive(st.ID) {
			block[st.ID] = -1
			continue
		}
		if st.Kind != KindArtificial {
			block[st.ID] = nBlocks
			nBlocks++
			continue
		}
		if artBlock < 0 {
			artBlock = nBlocks
			nBlocks++
		}
		block[st.ID] = artBlock
	}

	sig := func(s StateID) string {
		var b strings.Builder
		if e := m.eps[s]; e == NoState {
			b.WriteString("-")
		} else {
			b.WriteString(strconv.Itoa(block[e]))
		}
		for sym := 0; sym < nFD; sym++ {
			b.WriteByte('|')
			seen := map[int]bool{}
			var blocks []int
			for _, t := range m.out[int(s)*nFD+sym] {
				if bt := block[t]; !seen[bt] {
					seen[bt] = true
					blocks = append(blocks, bt)
				}
			}
			sortInts(blocks)
			for _, bt := range blocks {
				b.WriteString(strconv.Itoa(bt))
				b.WriteByte(',')
			}
		}
		return b.String()
	}

	for {
		next := make(map[string]int)
		newBlock := make([]int, len(block))
		n := 0
		for _, st := range m.States {
			if !r.alive(st.ID) {
				newBlock[st.ID] = -1
				continue
			}
			key := strconv.Itoa(block[st.ID]) + "#" + sig(st.ID)
			id, ok := next[key]
			if !ok {
				id = n
				n++
				next[key] = id
			}
			newBlock[st.ID] = id
		}
		if n == nBlocks {
			break
		}
		block, nBlocks = newBlock, n
	}

	reps := make(map[int]StateID)
	changed := false
	for _, st := range m.States {
		if st.Kind != KindArtificial || !r.alive(st.ID) {
			continue
		}
		if rep, ok := reps[block[st.ID]]; ok {
			r.redirect[st.ID] = rep
			m.byOrd[st.Ord] = rep
			m.MergedNodes++
			changed = true
		} else {
			reps[block[st.ID]] = st.ID
		}
	}
	if changed {
		r.normalize()
	}
	return changed
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// prunable reports whether the artificial state s derives nothing its
// prefix chain does not: every FD-edge target of s is either within the
// ε-closure of s or an FD-edge target (same symbol) of a prefix.
func (r *reducer) prunable(s StateID) bool {
	m := r.m
	nFD := len(m.FDSets)
	inEps := map[StateID]bool{s: true}
	var chain []StateID
	for e := m.eps[s]; e != NoState; e = m.eps[e] {
		inEps[e] = true
		chain = append(chain, e)
	}
	for sym := 0; sym < nFD; sym++ {
		for _, t := range m.out[int(s)*nFD+sym] {
			if inEps[t] {
				continue
			}
			covered := false
			for _, p := range chain {
				for _, pt := range m.out[int(p)*nFD+sym] {
					if pt == t {
						covered = true
						break
					}
				}
				if covered {
					break
				}
			}
			if !covered {
				return false
			}
		}
	}
	return true
}

func (r *reducer) pruneOnce() bool {
	r.normalize()
	changed := false
	for _, st := range r.m.States {
		if st.Kind != KindArtificial || !r.alive(st.ID) {
			continue
		}
		if r.prunable(st.ID) {
			r.redirect[st.ID] = r.m.eps[st.ID] // may be NoState
			delete(r.m.byOrd, st.Ord)
			r.m.PrunedNodes++
			changed = true
			r.normalize()
		}
	}
	return changed
}

// compact renumbers the surviving states densely and rebuilds all edge
// storage and lookup maps.
func (r *reducer) compact() {
	r.normalize()
	m := r.m
	nFD := len(m.FDSets)

	remap := make([]StateID, len(m.States))
	var states []State
	for _, st := range m.States {
		if r.alive(st.ID) {
			id := StateID(len(states))
			remap[st.ID] = id
			ns := st
			ns.ID = id
			states = append(states, ns)
		} else {
			remap[st.ID] = NoState
		}
	}
	mapped := func(s StateID) StateID {
		s = r.resolve(s)
		if s == NoState {
			return NoState
		}
		return remap[s]
	}

	eps := make([]StateID, len(states))
	out := make([][]StateID, len(states)*nFD)
	for _, st := range m.States {
		if !r.alive(st.ID) {
			continue
		}
		nid := remap[st.ID]
		eps[nid] = mapped(m.eps[st.ID])
		for sym := 0; sym < nFD; sym++ {
			targets := m.out[int(st.ID)*nFD+sym]
			nt := make([]StateID, 0, len(targets))
			for _, t := range targets {
				if mt := mapped(t); mt != NoState && mt != nid {
					nt = append(nt, mt)
				}
			}
			sortStates(nt)
			out[int(nid)*nFD+sym] = nt
		}
	}
	byOrd := make(map[order.ID]StateID, len(m.byOrd))
	for o, s := range m.byOrd {
		if ms := mapped(s); ms != NoState {
			byOrd[o] = ms
		}
	}
	m.States = states
	m.eps = eps
	m.out = out
	m.byOrd = byOrd
}

// dropInertSymbols removes FD-set symbols whose edges never leave any
// node's ε-closure: applying such an operator can never change the set
// of available interesting orders, so its transition is the identity and
// the symbol needs no column in the precomputed tables.
func dropInertSymbols(m *Machine) {
	nFD := len(m.FDSets)
	inert := make([]bool, nFD)
	for sym := 0; sym < nFD; sym++ {
		inert[sym] = true
		for _, st := range m.States {
			if len(m.FDTargets(st.ID, sym)) > 0 {
				inert[sym] = false
				break
			}
		}
	}
	newSym := make([]int, nFD)
	var kept []order.FDSet
	for sym := 0; sym < nFD; sym++ {
		if inert[sym] {
			newSym[sym] = -1
			m.InertSymbols++
			continue
		}
		newSym[sym] = len(kept)
		kept = append(kept, m.FDSets[sym])
	}
	if len(kept) == nFD {
		return
	}
	out := make([][]StateID, len(m.States)*len(kept))
	for _, st := range m.States {
		for sym := 0; sym < nFD; sym++ {
			if ns := newSym[sym]; ns >= 0 {
				out[int(st.ID)*len(kept)+ns] = m.out[int(st.ID)*nFD+sym]
			}
		}
	}
	for i, s := range m.FDSymbol {
		if s >= 0 {
			m.FDSymbol[i] = newSym[s]
		}
	}
	m.FDSets = kept
	m.out = out
}
