// Adaptive large-query planning. The exact dynamic programming (DPccp
// over all connected subgraph pairs) is optimal but exponential: dense
// join graphs much past ~14 relations are unplannable within any
// latency budget. Following the adaptive-optimization playbook of
// Neumann & Radke (SIGMOD 2018), queries beyond that horizon fall back
// to a heuristic tier:
//
//  1. Linearization: greedy operator ordering (Fegaras' GOO — merge
//     the connected component pair with the smallest joined
//     cardinality until one remains) turns the join graph into a
//     sequence in which every greedy subtree is a contiguous interval.
//  2. Linearized DP: a polynomial dynamic program over the contiguous
//     intervals of that sequence — exactly the chain-query DP, O(n²)
//     subproblems and O(n³) splits — reusing the exact tier's dpTable
//     dominance lists, plan arena, cost model and DFSM/Simmen order
//     propagation. Operator choice, interesting orders, sorts and
//     group-bys are therefore costed exactly as in the exact path; only
//     the set of relation subsets considered is restricted.
//
// Strategy selects the tier; StrategyAuto decides per query at Prepare
// time: queries with more than DefaultAutoMaxExactRelations relations
// always plan linearized (even on sparse graphs, exact dominance lists
// grow with the relation and interesting-order count), and within that
// cap a bounded csg-cmp-pair probe (countPairsUpTo) sends dense graphs —
// whose pair count explodes long before the cap — to the linearized
// tier as well.
package optimizer

import (
	"fmt"

	"orderopt/internal/plan"
)

// Strategy selects the planning tier.
type Strategy uint8

const (
	// StrategyExact always runs the exhaustive DP (the zero value — the
	// behavior of every configuration predating the adaptive tier).
	StrategyExact Strategy = iota
	// StrategyLinearized always runs the heuristic tier: linearization
	// plus the polynomial DP over the linearized sequence.
	StrategyLinearized
	// StrategyAuto resolves to exact or linearized per query at Prepare
	// time: exact when the query is within the exact-DP horizon (at most
	// DefaultAutoMaxExactRelations relations and a csg-cmp-pair count
	// within DefaultAutoPairBudget), linearized beyond it.
	StrategyAuto
)

func (s Strategy) String() string {
	switch s {
	case StrategyLinearized:
		return "linearized"
	case StrategyAuto:
		return "auto"
	default:
		return "exact"
	}
}

// StrategyAuto defaults. The relation cap is a hard ceiling on the
// exact tier: beyond it even a sparse graph's exact DP gets slow, not
// because of the pair count (a chain-30 has only ~4.5k) but because
// the undominated plan lists those pairs multiply grow with the
// relation and interesting-order count. Within the cap the pair budget
// is the decider: a chain-16 counts ~680 pairs and stays exact, a
// clique-14 blows the budget within the first few thousand probe steps
// and switches tiers.
const (
	DefaultAutoMaxExactRelations = 18
	DefaultAutoPairBudget        = 50_000
)

// DefaultLinearizedBeam bounds the plan list per relation subset in the
// linearized tier. Dominance pruning alone lets
// lists grow with the interesting-order count, and the linearized DP
// multiplies list sizes at every split — a small beam keeps large-query
// planning in the microseconds-to-milliseconds band at a bounded,
// cross-checked cost in plan quality.
const DefaultLinearizedBeam = 3

// chooseStrategy resolves StrategyAuto for this query (called once, at
// Prepare time; the decision is cached in the Prepared).
func (p *Prepared) chooseStrategy() Strategy {
	n := len(p.g.Relations)
	if n > DefaultAutoMaxExactRelations {
		return StrategyLinearized
	}
	if _, exceeded := countPairsUpTo(n, p.adj, DefaultAutoPairBudget); exceeded {
		return StrategyLinearized
	}
	return StrategyExact
}

// linearize computes the join-order linearization by greedy operator
// ordering (GOO): every relation starts as its own component, and the
// connected pair of components whose merged subset has the smallest
// estimated cardinality is merged — cheaper component first — until one
// remains. Flattening the merge tree left to right yields a sequence in
// which every greedily chosen subtree is a contiguous interval, so the
// linearized DP can always reproduce the GOO plan and usually improves
// on it (it re-optimizes every split and every operator choice). Ties
// break toward lower component indexes, keeping the result
// deterministic.
func (p *Prepared) linearize() []int {
	n := len(p.g.Relations)
	seqs := make([][]int, n)
	masks := make([]uint64, n)
	for r := 0; r < n; r++ {
		seqs[r] = []int{r}
		masks[r] = 1 << uint(r)
	}
	for len(seqs) > 1 {
		bi, bj, bestCard := -1, -1, 0.0
		for i := 0; i < len(seqs); i++ {
			for j := i + 1; j < len(seqs); j++ {
				if !p.masksJoined(masks[i], masks[j]) {
					continue
				}
				if card := p.maskCard(masks[i] | masks[j]); bi < 0 || card < bestCard {
					bi, bj, bestCard = i, j, card
				}
			}
		}
		if bi < 0 {
			// Disconnected graph (rejected by query.Validate, but stay
			// total): concatenate arbitrarily; the DP will then fail to
			// cover the full set, exactly like the exact tier does.
			bi, bj = 0, 1
		} else if p.maskCard(masks[bj]) < p.maskCard(masks[bi]) {
			seqs[bi], seqs[bj] = seqs[bj], seqs[bi]
		}
		seqs[bi] = append(seqs[bi], seqs[bj]...)
		masks[bi] |= masks[bj]
		seqs = append(seqs[:bj], seqs[bj+1:]...)
		masks = append(masks[:bj], masks[bj+1:]...)
	}
	return seqs[0]
}

// masksJoined reports whether a join edge crosses the two disjoint
// relation subsets.
func (p *Prepared) masksJoined(a, b uint64) bool {
	for _, em := range p.edgeMask {
		if em&a != 0 && em&b != 0 {
			return true
		}
	}
	return false
}

// runLinearized executes the polynomial DP over the linearized
// sequence: dp over contiguous intervals [i,j], combining every split
// [i,k] | [k+1,j] that has a crossing join edge. Plans, dominance
// pruning, sorts and the GROUP BY / ORDER BY finish are shared with the
// exact tier, so the produced plan carries exactly the same order
// reasoning — only the join-order space is restricted.
func (o *optimizer) runLinearized() (*plan.Node, error) {
	n := len(o.p.linSeq)
	o.basePlans(n)
	o.walkIntervals(o.joinLists)
	full := o.p.linPre[n]
	if len(o.dp.get(full)) == 0 {
		return nil, fmt.Errorf("optimizer: no linearized plan for relation set %b", full)
	}
	return o.finish(full)
}

// walkIntervals counts and calls join for every split of an interval of
// the sequence into two intervals that hold plans and share an edge,
// shorter intervals first. Once an interval is finished the beam bounds
// its plan list to DefaultLinearizedBeam, keeping the cheapest plans:
// nothing is dropped while an interval is being built, so the same-state
// floor and the pruning hold as in the exact tier. The base plans'
// intervals are bounded first.
func (o *optimizer) walkIntervals(join func(s1, s2 uint64, edges []int)) {
	pre := o.p.linPre // pre[i] = mask of the first i sequence relations
	n := len(o.p.linSeq)
	iv := func(i, j int) uint64 { return pre[j+1] &^ pre[i] }
	beam := func(mask uint64) {
		l := o.dp.get(mask)
		if len(l) <= DefaultLinearizedBeam {
			return
		}
		// A tie at the cut goes to the plans admitted first, which
		// insert put last among their equal-cost run.
		cut := l[DefaultLinearizedBeam-1].Cost
		start, end := DefaultLinearizedBeam-1, DefaultLinearizedBeam
		for start > 0 && l[start-1].Cost == cut {
			start--
		}
		for end < len(l) && l[end].Cost == cut {
			end++
		}
		o.dp.set(mask, append(l[:start], l[end-DefaultLinearizedBeam+start:end]...))
	}
	for i := range n {
		beam(iv(i, i))
	}
	for length := 2; length <= n; length++ {
		for i := 0; i+length <= n; i++ {
			j := i + length - 1
			for k := i; k < j; k++ {
				s1, s2 := iv(i, k), iv(k+1, j)
				if len(o.dp.get(s1)) == 0 || len(o.dp.get(s2)) == 0 {
					// Intervals not containing sequence position 0 can be
					// internally disconnected (a star linearized hub-first
					// has leaf-only intervals); they simply hold no plans.
					continue
				}
				edges := o.edgesBetween(s1, s2)
				if len(edges) == 0 {
					continue
				}
				o.ccPairs++
				join(s1, s2, edges)
			}
			beam(iv(i, j))
		}
	}
}
