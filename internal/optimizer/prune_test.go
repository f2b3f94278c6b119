package optimizer

import (
	"fmt"
	"slices"
	"testing"

	"orderopt/internal/querygen"
)

// dpOutcome is everything a run leaves behind that inner pruning must
// not move: every mask's final plan list, entry by entry, and the run's
// counters.
type dpOutcome struct {
	lists             [][]string // by relation mask
	generated, priced int64
	retained, nodes   int
}

// runPruned runs p's DP on fresh scratch with the run's inner pruning
// forced on or off, whatever bind derived from the mode.
func runPruned(t *testing.T, p *Prepared, prune bool) dpOutcome {
	t.Helper()
	o := new(optimizer)
	o.bind(p)
	defer o.unbind()
	o.prune = prune
	if _, err := o.run(); err != nil {
		t.Fatal(err)
	}
	out := dpOutcome{lists: make([][]string, 1<<uint(len(p.g.Relations))), generated: o.generated,
		priced: o.priced, retained: o.dp.retained(), nodes: o.nodes}
	for mask := range out.lists {
		for _, q := range o.dp.get(uint64(mask)) {
			out.lists[mask] = append(out.lists[mask], fmt.Sprintf("%v %d %s", q.Cost, q.State, q))
		}
	}
	return out
}

// TestInnerPruningMatchesFullDP holds the skip of non-leading inners
// (sortEntry.lead) to the DP that prices every candidate: on seeded
// querygen graphs of four shapes at 3–8 relations (cliques to 6), with
// indexes, under ModeDFSM's exact tier, every mask's final list (cost,
// state, plan) and the generated, retained and arena-node counts must
// be identical with the pruning on and off, and the pruning must price
// fewer candidates. -exhaustive widens the seeds from 3 to 12.
func TestInnerPruningMatchesFullDP(t *testing.T) {
	seeds := 3
	if *exhaustive {
		seeds = 12
	}
	cfg := DefaultConfig(ModeDFSM)
	cfg.Strategy = StrategyExact
	for _, shape := range []querygen.Shape{querygen.Chain, querygen.Star, querygen.Cycle, querygen.Clique} {
		for n := 3; n <= 8; n++ {
			if shape == querygen.Clique && n > 6 {
				continue
			}
			for seed := range int64(seeds) {
				t.Run(fmt.Sprintf("%s/n%d_s%d", shape, n, seed), func(t *testing.T) {
					t.Parallel()
					a := analyzeSpec(t, querygen.Spec{Shape: shape, Relations: n, Seed: seed, WithGroupBy: seed%2 == 1})
					p, err := Prepare(a, cfg)
					if err != nil {
						t.Fatal(err)
					}
					on, off := runPruned(t, p, true), runPruned(t, p, false)
					for mask, want := range off.lists {
						if got := on.lists[mask]; !slices.Equal(got, want) {
							t.Errorf("mask %b: pruned list\n%q\nfull list\n%q", mask, got, want)
						}
					}
					if on.generated != off.generated || on.retained != off.retained || on.nodes != off.nodes {
						t.Errorf("pruned generated/retained/nodes %d/%d/%d, full %d/%d/%d",
							on.generated, on.retained, on.nodes, off.generated, off.retained, off.nodes)
					}
					if on.priced >= off.priced {
						t.Errorf("pruned run priced %d candidates, full %d: nothing skipped", on.priced, off.priced)
					}
				})
			}
		}
	}
}

// TestServedQ8PricesLeadingInnersOnly pins the served Q8's counts, so a
// change that loses the inner pruning fails here and not only in
// BenchmarkServedQ8: 10,552 candidates counted, at most 2,775 of them
// priced (all 6,834 join candidates without the pruning), 834 arena
// nodes.
func TestServedQ8PricesLeadingInnersOnly(t *testing.T) {
	p, err := Prepare(servedQ8(t, servedQ8SQL), DefaultConfig(ModeDFSM))
	if err != nil {
		t.Fatal(err)
	}
	o := new(optimizer)
	res, err := o.plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if o.priced > 2775 || res.PlansGenerated != 10552 || o.nodes != 834 {
		t.Errorf("served Q8 priced %d, counted %d, arena nodes %d; want ≤ 2775, 10552, 834",
			o.priced, res.PlansGenerated, o.nodes)
	}
}
