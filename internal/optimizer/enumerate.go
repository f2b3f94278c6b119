// Join-pair enumeration. The plan generator consumes csg-cmp pairs: a
// connected subgraph S1 and a connected, disjoint complement S2 with at
// least one join edge between them. Two enumerators produce them:
//
//   - EnumDPccp (default) is the csg-cmp-pair algorithm of Moerkotte &
//     Neumann (VLDB 2006): it grows connected subgraphs by neighborhood
//     expansion over the adjacency bitsets and therefore emits exactly
//     the valid pairs, never testing connectivity during enumeration.
//   - EnumNaive is the seed DPsub algorithm, kept as the reference
//     implementation: walk all 2^n masks, try every subset split, and
//     discard splits whose halves are not connected.
//
// Both emit each unordered pair exactly once, in an order valid for
// dynamic programming (every pair composing S1 or S2 is emitted before
// any pair using it as an input).
package optimizer

import (
	"math/bits"

	"orderopt/internal/query"
)

// Enumerator selects the join-pair enumeration algorithm.
type Enumerator uint8

const (
	// EnumDPccp enumerates connected-subgraph/complement pairs directly.
	EnumDPccp Enumerator = iota
	// EnumNaive filters all subset splits through connectivity checks.
	EnumNaive
)

func (e Enumerator) String() string {
	if e == EnumNaive {
		return "naive"
	}
	return "dpccp"
}

// EnumeratePairs runs the selected enumerator over n relations with the
// given per-relation adjacency masks, invoking emit once per unordered
// csg-cmp pair. It is the raw enumeration entry point the optimizer
// drives; exported so benchmarks and experiments can measure
// enumeration cost in isolation.
func EnumeratePairs(e Enumerator, n int, adj []uint64, emit func(s1, s2 uint64)) {
	if e == EnumNaive {
		enumerateNaive(n, adj, emit)
	} else {
		enumerateDPccp(n, adj, emit)
	}
}

// neighborhood returns the relations adjacent to (but not in) s.
func neighborhood(adj []uint64, s uint64) uint64 {
	var nb uint64
	for m := s; m != 0; m &= m - 1 {
		nb |= adj[bits.TrailingZeros64(m)]
	}
	return nb &^ s
}

// enumerateNaive is the reference DPsub enumeration: ascending masks are
// a valid DP order, and restricting S1 to contain the mask's lowest
// relation yields each unordered pair once. Connectivity of the mask and
// both halves is re-derived per split — the rejected work DPccp avoids.
func enumerateNaive(n int, adj []uint64, emit func(s1, s2 uint64)) {
	full := uint64(1)<<uint(n) - 1
	for mask := uint64(1); mask <= full; mask++ {
		if bits.OnesCount64(mask) < 2 || !query.ConnectedIn(adj, mask) {
			continue
		}
		low := mask & -mask
		for s1 := (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask {
			if s1&low == 0 {
				continue
			}
			s2 := mask ^ s1
			if !query.ConnectedIn(adj, s1) || !query.ConnectedIn(adj, s2) {
				continue
			}
			// mask is connected, so every split into connected halves
			// has a crossing edge: the pair is always valid.
			emit(s1, s2)
		}
	}
}

// enumerateDPccp emits every csg-cmp pair via the DPccp algorithm.
func enumerateDPccp(n int, adj []uint64, emit func(s1, s2 uint64)) {
	walkDPccp(n, adj, func(s1, s2 uint64) bool {
		emit(s1, s2)
		return true
	})
}

// countPairsUpTo counts the csg-cmp pairs of the join graph by DPccp
// enumeration, aborting as soon as the count exceeds limit. It is
// Prepare's horizon probe: the cost is O(min(pairs, limit)) enumeration
// steps — independent of plan generation — so asking "is this query
// within the exact-DP horizon?" stays cheap even when the answer is a
// resounding no (a clique's pair count is exponential, but the probe
// walks only the first limit+1 pairs of it).
func countPairsUpTo(n int, adj []uint64, limit int64) (count int64, exceeded bool) {
	exceeded = !walkDPccp(n, adj, func(_, _ uint64) bool {
		count++
		return count <= limit
	})
	return count, exceeded
}

// walkDPccp is the DPccp recursion. Relations are seeded in descending
// index order; expansions may only use relations with a higher index
// than the seed (the forbidden set X), which makes each connected
// subgraph — and each pair — come out exactly once, smaller unions
// before larger ones. emit reports whether to go on; a false return
// unwinds the whole recursion at once, and walkDPccp reports whether it
// ran to the end.
func walkDPccp(n int, adj []uint64, emit func(s1, s2 uint64) bool) bool {
	for i := n - 1; i >= 0; i-- {
		v := uint64(1) << uint(i)
		if !emitCsg(adj, v, emit) || !enumerateCsgRec(adj, v, v|(v-1), emit) {
			return false
		}
	}
	return true
}

// enumerateCsgRec extends the connected subgraph s with every non-empty
// subset of its allowed neighborhood, emitting each extension as a csg
// and recursing to grow it further.
func enumerateCsgRec(adj []uint64, s, x uint64, emit func(s1, s2 uint64) bool) bool {
	nb := neighborhood(adj, s) &^ x
	if nb == 0 {
		return true
	}
	for sub := nb & -nb; ; sub = (sub - nb) & nb {
		if !emitCsg(adj, s|sub, emit) {
			return false
		}
		if sub == nb {
			break
		}
	}
	for sub := nb & -nb; ; sub = (sub - nb) & nb {
		if !enumerateCsgRec(adj, s|sub, x|nb, emit) {
			return false
		}
		if sub == nb {
			break
		}
	}
	return true
}

// emitCsg enumerates the complements of the connected subgraph s1: one
// seed per neighbor relation (descending, each guaranteed a crossing
// edge), grown by enumerateCmpRec. The forbidden set keeps complements
// from re-using s1, relations below s1's minimum (those pairs were
// emitted from the smaller seed), or neighbors still to be seeded.
func emitCsg(adj []uint64, s1 uint64, emit func(s1, s2 uint64) bool) bool {
	min := s1 & -s1
	x := s1 | (min - 1)
	nb := neighborhood(adj, s1) &^ x
	for m := nb; m != 0; {
		i := bits.Len64(m) - 1 // highest remaining neighbor
		v := uint64(1) << uint(i)
		m &^= v
		// Lower-indexed neighbors stay forbidden: the pairs they seed
		// are emitted in their own iteration.
		if !emit(s1, v) || !enumerateCmpRec(adj, s1, v, x|(nb&(v|(v-1))), emit) {
			return false
		}
	}
	return true
}

// enumerateCmpRec grows the complement s2 exactly like enumerateCsgRec
// grows subgraphs; every extension stays adjacent to s1 through s2.
func enumerateCmpRec(adj []uint64, s1, s2, x uint64, emit func(s1, s2 uint64) bool) bool {
	nb := neighborhood(adj, s2) &^ x
	if nb == 0 {
		return true
	}
	for sub := nb & -nb; ; sub = (sub - nb) & nb {
		if !emit(s1, s2|sub) {
			return false
		}
		if sub == nb {
			break
		}
	}
	for sub := nb & -nb; ; sub = (sub - nb) & nb {
		if !enumerateCmpRec(adj, s1, s2|sub, x|nb, emit) {
			return false
		}
		if sub == nb {
			break
		}
	}
	return true
}
