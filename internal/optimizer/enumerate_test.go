package optimizer

import (
	"flag"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"orderopt/internal/query"
	"orderopt/internal/querygen"
)

// enumSizes lists the sizes the enumeration-only cross-checks run at:
// every shape up to the full n = 12.
func enumSizes(shape querygen.Shape) []int {
	if shape == querygen.Cycle {
		return []int{3, 6, 10, 12}
	}
	return []int{2, 5, 9, 12}
}

// costSizes bounds the end-to-end Optimize cross-check per mode and
// shape. The plan space — not the enumeration — is the budget: a clique-7
// run generates ~3M plans and the Simmen baseline's Ω(n) dominance
// checks push that to minutes, so dense shapes stay small and the
// slower baseline mode smaller still.
func costSizes(mode Mode, shape querygen.Shape) []int {
	if mode == ModeSimmen {
		switch shape {
		case querygen.Star:
			return []int{2, 7}
		case querygen.Cycle:
			return []int{3, 7}
		case querygen.Clique:
			return []int{2, 5}
		case querygen.Grid:
			return []int{4, 6}
		default:
			return []int{2, 9}
		}
	}
	switch shape {
	case querygen.Star:
		return []int{2, 5, 8}
	case querygen.Cycle:
		return []int{3, 6, 9}
	case querygen.Clique:
		return []int{2, 4, 6}
	case querygen.Grid:
		return []int{4, 6, 9}
	default:
		return []int{2, 7, 12}
	}
}

// extrasFor returns the extra-edge counts to randomize over.
func extrasFor(shape querygen.Shape, n int) []int {
	if shape == querygen.Clique || n < 4 {
		return []int{0}
	}
	return []int{0, 2}
}

type pairSet map[[2]uint64]struct{}

func (ps pairSet) add(s1, s2 uint64) {
	if s1 > s2 {
		s1, s2 = s2, s1
	}
	ps[[2]uint64{s1, s2}] = struct{}{}
}

func genGraph(t *testing.T, shape querygen.Shape, n, extra int, seed int64) *query.Graph {
	t.Helper()
	_, g, err := querygen.Generate(querygen.Spec{
		Relations: n, Shape: shape, ExtraEdges: extra, Seed: seed,
	})
	if err != nil {
		t.Fatalf("%s n=%d extra=%d seed=%d: %v", shape, n, extra, seed, err)
	}
	return g
}

// TestEnumeratorsAgreeOnPairs cross-checks that DPccp visits exactly the
// csg-cmp pair set the naive reference derives by filtering, on
// randomized graphs of every shape up to n = 12.
func TestEnumeratorsAgreeOnPairs(t *testing.T) {
	for _, shape := range querygen.Shapes() {
		for _, n := range enumSizes(shape) {
			for _, extra := range extrasFor(shape, n) {
				for seed := int64(0); seed < 3; seed++ {
					g := genGraph(t, shape, n, extra, seed)
					adj := g.EdgeMasks().Adj
					naive, dpccp := pairSet{}, pairSet{}
					enumerateNaive(n, adj, naive.add)
					enumerateDPccp(n, adj, dpccp.add)
					if len(naive) != len(dpccp) {
						t.Errorf("%s n=%d extra=%d seed=%d: naive %d pairs, dpccp %d",
							shape, n, extra, seed, len(naive), len(dpccp))
						continue
					}
					for p := range naive {
						if _, ok := dpccp[p]; !ok {
							t.Errorf("%s n=%d extra=%d seed=%d: dpccp missed pair %b|%b",
								shape, n, extra, seed, p[0], p[1])
						}
					}
				}
			}
		}
	}
}

// TestDPccpEmitsNoDuplicates ensures each unordered pair comes out of
// DPccp exactly once (the naive side is deduplicated by construction).
func TestDPccpEmitsNoDuplicates(t *testing.T) {
	for _, shape := range querygen.Shapes() {
		sizes := enumSizes(shape)
		n := sizes[len(sizes)-1]
		g := genGraph(t, shape, n, 0, 1)
		adj := g.EdgeMasks().Adj
		seen := pairSet{}
		var emitted int
		enumerateDPccp(n, adj, func(s1, s2 uint64) {
			emitted++
			seen.add(s1, s2)
		})
		if emitted != len(seen) {
			t.Errorf("%s n=%d: %d emissions for %d distinct pairs", shape, n, emitted, len(seen))
		}
	}
}

// TestDPccpPairCounts pins the emitted pair count to the closed forms
// from Moerkotte & Neumann (VLDB 2006): chains have (n³−n)/6 csg-cmp
// pairs, cliques (3ⁿ − 2ⁿ⁺¹ + 1)/2.
func TestDPccpPairCounts(t *testing.T) {
	for n := 2; n <= 12; n++ {
		for _, shape := range []querygen.Shape{querygen.Chain, querygen.Clique} {
			g := genGraph(t, shape, n, 0, 0)
			var got int
			enumerateDPccp(n, g.EdgeMasks().Adj, func(_, _ uint64) { got++ })
			want := (n*n*n - n) / 6
			if shape == querygen.Clique {
				want = (intPow(3, n) - 2*intPow(2, n) + 1) / 2
			}
			if got != want {
				t.Errorf("%s n=%d: %d pairs, want %d", shape, n, got, want)
			}
		}
	}
}

func intPow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

// TestGridPairCounts cross-checks the csg-cmp pair count on grid graphs
// three ways: both enumerators, a brute-force reference implemented
// independently in this test (its own connectivity walk over all subset
// pairs), and pinned literals for the named lattices. A prime size must
// collapse to the chain closed form.
func TestGridPairCounts(t *testing.T) {
	pinned := map[int]int{
		4:  18,    // 2×2
		6:  114,   // 2×3
		8:  506,   // 2×4
		9:  1381,  // 3×3
		12: 12275, // 3×4
	}
	for _, n := range []int{4, 6, 8, 9, 12} {
		g := genGraph(t, querygen.Grid, n, 0, 0)
		adj := g.EdgeMasks().Adj
		var naive, dpccp int
		enumerateNaive(n, adj, func(_, _ uint64) { naive++ })
		enumerateDPccp(n, adj, func(_, _ uint64) { dpccp++ })
		brute := brutePairCount(adj, n)
		if naive != brute || dpccp != brute {
			t.Errorf("grid n=%d: naive %d, dpccp %d, brute force %d", n, naive, dpccp, brute)
		}
		if want := pinned[n]; brute != want {
			t.Errorf("grid n=%d: %d pairs, pinned %d", n, brute, want)
		}
	}
	// 1×7 grid is the chain: (n³−n)/6 pairs.
	g := genGraph(t, querygen.Grid, 7, 0, 0)
	var got int
	enumerateDPccp(7, g.EdgeMasks().Adj, func(_, _ uint64) { got++ })
	if want := (7*7*7 - 7) / 6; got != want {
		t.Errorf("1×7 grid: %d pairs, chain closed form %d", got, want)
	}
}

// brutePairCount counts valid csg-cmp pairs by exhaustive subset
// enumeration with its own fixpoint connectivity check — deliberately
// sharing no code with either enumerator.
func brutePairCount(adj []uint64, n int) int {
	connected := func(mask uint64) bool {
		if mask == 0 {
			return false
		}
		seen := mask & -mask
		for {
			next := seen
			for m := seen; m != 0; m &= m - 1 {
				next |= adj[bits.TrailingZeros64(m)] & mask
			}
			if next == seen {
				return seen == mask
			}
			seen = next
		}
	}
	full := uint64(1)<<uint(n) - 1
	total := 0
	for s1 := uint64(1); s1 <= full; s1++ {
		if !connected(s1) {
			continue
		}
		rest := full &^ s1
		for s2 := rest; s2 != 0; s2 = (s2 - 1) & rest {
			if s2 > s1 { // unordered pairs: count each once
				continue
			}
			if !connected(s2) {
				continue
			}
			adjacent := false
			for m := s1; m != 0 && !adjacent; m &= m - 1 {
				if adj[bits.TrailingZeros64(m)]&s2 != 0 {
					adjacent = true
				}
			}
			if adjacent {
				total++
			}
		}
	}
	return total
}

// TestDPccpEmitsInDPOrder verifies the property the immediate-join
// callback relies on: when DPccp emits (S1, S2), every pair composing S1
// or S2 has already been emitted, so both plan lists are final.
func TestDPccpEmitsInDPOrder(t *testing.T) {
	for _, shape := range querygen.Shapes() {
		for _, n := range []int{3, 6, 10} {
			if shape == querygen.Cycle && n < 3 {
				continue
			}
			g := genGraph(t, shape, n, 0, 2)
			adj := g.EdgeMasks().Adj
			// remaining[mask] counts the pairs that still must be joined
			// before dp[mask] is final.
			remaining := map[uint64]int{}
			enumerateNaive(n, adj, func(s1, s2 uint64) {
				remaining[s1|s2]++
			})
			enumerateDPccp(n, adj, func(s1, s2 uint64) {
				for _, s := range []uint64{s1, s2} {
					if bits.OnesCount64(s) > 1 && remaining[s] != 0 {
						t.Errorf("%s n=%d: pair %b|%b emitted before %b was complete (%d pairs left)",
							shape, n, s1, s2, s, remaining[s])
					}
				}
				remaining[s1|s2]--
			})
			for mask, left := range remaining {
				if left != 0 {
					t.Errorf("%s n=%d: mask %b ended with %d pairs outstanding", shape, n, mask, left)
				}
			}
		}
	}
}

// exhaustive widens the randomized cross-checks
// (TestEnumeratorsAgreeOnOptimalCost, TestLinearizedCrossCheck,
// TestInnerPruningMatchesFullDP) from their default seeds to their full
// seed sweep. The default run keeps every
// mode, shape, size and extra-edge point so tier-1 stays in seconds;
// `make race` runs the sweep — without -race, which is for the default
// run: the detector's shadow memory on a grid-12 exact DP (26M plans)
// alone reaches 16 GB:
//
//	go test ./internal/optimizer/ -args -exhaustive
var exhaustive = flag.Bool("exhaustive", false,
	"run the randomized optimizer cross-checks over their full seed sweep")

// crossCheckSeeds returns the seeds a cross-check runs per point: all
// of 0..full-1 under -exhaustive, otherwise seed 1 alone (the cheapest
// of the sweep on the two points that dominate the run time, grid-12
// and the Simmen chain-9+2).
func crossCheckSeeds(full int64) []int64 {
	if !*exhaustive {
		return []int64{1}
	}
	seeds := make([]int64, full)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	return seeds
}

// TestEnumeratorsAgreeOnOptimalCost runs the full optimizer under both
// enumerators on randomized graphs of every shape and demands identical
// best-plan costs — the paper's "same optimal plan" sanity check applied
// to the enumeration dimension — and identical pair and plan counts. Cases share nothing, so they run in
// parallel.
func TestEnumeratorsAgreeOnOptimalCost(t *testing.T) {
	for _, mode := range []Mode{ModeDFSM, ModeSimmen} {
		for _, shape := range querygen.Shapes() {
			for _, n := range costSizes(mode, shape) {
				for _, extra := range extrasFor(shape, n) {
					for _, seed := range crossCheckSeeds(2) {
						name := fmt.Sprintf("%s/%s/n%d_e%d_s%d", mode, shape, n, extra, seed)
						t.Run(name, func(t *testing.T) {
							t.Parallel()
							costs := map[Enumerator]float64{}
							pairs, plans := map[Enumerator]int64{}, map[Enumerator]int64{}
							for _, enum := range []Enumerator{EnumNaive, EnumDPccp} {
								g := genGraph(t, shape, n, extra, seed)
								a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
								if err != nil {
									t.Fatal(err)
								}
								cfg := DefaultConfig(mode)
								cfg.Enumerator = enum
								res, err := Optimize(a, cfg)
								if err != nil {
									t.Fatalf("%s: %v", enum, err)
								}
								costs[enum] = res.Best.Cost
								pairs[enum] = res.CsgCmpPairs
								plans[enum] = res.PlansGenerated
							}
							if math.Abs(costs[EnumNaive]-costs[EnumDPccp]) > 1e-6*math.Max(costs[EnumNaive], 1) {
								t.Errorf("optimal costs differ: naive %.3f vs dpccp %.3f",
									costs[EnumNaive], costs[EnumDPccp])
							}
							if pairs[EnumNaive] != pairs[EnumDPccp] || plans[EnumNaive] != plans[EnumDPccp] {
								t.Errorf("pair or plan counts differ: naive %d/%d vs dpccp %d/%d",
									pairs[EnumNaive], plans[EnumNaive], pairs[EnumDPccp], plans[EnumDPccp])
							}
						})
					}
				}
			}
		}
	}
}
