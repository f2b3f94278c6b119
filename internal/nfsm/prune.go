package nfsm

import (
	"slices"

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
	n := len(m.States)
	sigLen := n * (2 + len(m.FDSets)) // an upper bound: normalize only drops targets
	for _, ts := range m.out {
		sigLen += len(ts)
	}
	buf := make([]int32, 4*n+sigLen)
	r := &reducer{m: m, redirect: make([]StateID, n), block: buf[:n], next: buf[n : 2*n],
		lo: buf[2*n : 3*n], hi: buf[3*n : 4*n], sigs: buf[4*n : 4*n], byKey: make([]StateID, 0, n)}
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

	// mergeOnce's scratch, per state and reused across rounds and calls:
	// its block in the current and the next round, and its signature,
	// sigs[lo[s]:hi[s]]; byKey lists the alive states to sort by it.
	block, next []int32
	lo, hi      []int32
	sigs        []int32
	byKey       []StateID
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
			kept := m.out[idx][:0]
			for _, t := range m.out[idx] {
				if t = r.resolve(t); t != NoState && t != st.ID {
					kept = append(kept, t)
				}
			}
			sortStates(kept)
			m.out[idx] = slices.Compact(kept)
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

	block, next := r.block, r.next
	nBlocks := int32(0)
	artBlock := int32(-1)
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

	// A state's key is its block, its ε successor's (-1 for none), then
	// per symbol the sorted distinct blocks of its targets closed by -2.
	// States with equal keys share a block in the next round.
	key := func(s StateID) []int32 { return r.sigs[r.lo[s]:r.hi[s]] }
	for {
		r.sigs, r.byKey = r.sigs[:0], r.byKey[:0]
		for _, st := range m.States {
			s := st.ID
			if !r.alive(s) {
				next[s] = -1
				continue
			}
			e := int32(-1)
			if m.eps[s] != NoState {
				e = block[m.eps[s]]
			}
			r.lo[s] = int32(len(r.sigs))
			r.sigs = append(r.sigs, block[s], e)
			for sym := 0; sym < nFD; sym++ {
				k := len(r.sigs)
				for _, t := range m.out[int(s)*nFD+sym] {
					r.sigs = append(r.sigs, block[t])
				}
				slices.Sort(r.sigs[k:])
				r.sigs = append(r.sigs[:k+len(slices.Compact(r.sigs[k:]))], -2)
			}
			r.hi[s] = int32(len(r.sigs))
			r.byKey = append(r.byKey, s)
		}
		slices.SortFunc(r.byKey, func(a, b StateID) int { return slices.Compare(key(a), key(b)) })
		n := int32(0)
		for i, s := range r.byKey {
			if i > 0 && !slices.Equal(key(s), key(r.byKey[i-1])) {
				n++
			}
			next[s] = n
		}
		if len(r.byKey) > 0 {
			n++
		}
		if n == nBlocks {
			break
		}
		block, next, nBlocks = next, block, n
	}

	first := next[:nBlocks] // per block: its first artificial state, or -1
	for i := range first {
		first[i] = -1
	}
	changed := false
	for _, st := range m.States {
		if st.Kind != KindArtificial || !r.alive(st.ID) {
			continue
		}
		if rep := first[block[st.ID]]; rep >= 0 {
			r.redirect[st.ID] = StateID(rep)
			m.byOrd[st.Ord] = StateID(rep)
			m.MergedNodes++
			changed = true
		} else {
			first[block[st.ID]] = int32(st.ID)
		}
	}
	if changed {
		r.normalize()
	}
	return changed
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
