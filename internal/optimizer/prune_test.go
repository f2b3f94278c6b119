package optimizer

import (
	"fmt"
	"slices"
	"testing"

	"orderopt/internal/plan"
	"orderopt/internal/querygen"
)

// dpOutcome is everything a run leaves behind that the pruning must not
// move: every mask's final plan list, entry by entry, and the run's
// counters.
type dpOutcome struct {
	lists             [][]string // by relation mask
	generated, priced int64
	retained, nodes   int
}

// outcome records o's run.
func outcome(o *optimizer) dpOutcome {
	out := dpOutcome{lists: make([][]string, 1<<uint(len(o.p.g.Relations))), generated: o.generated,
		priced: o.priced, retained: o.dp.retained(), nodes: o.nodes}
	for mask := range out.lists {
		for _, q := range o.dp.get(uint64(mask)) {
			out.lists[mask] = append(out.lists[mask], fmt.Sprintf("%v %d %s", q.Cost, q.State, q))
		}
	}
	return out
}

// runPruned runs p's DP on fresh scratch as Run does: inner and outer
// pruning on under ModeDFSM, shared sort states, candidates counted per
// pair by count.
func runPruned(t *testing.T, p *Prepared) dpOutcome {
	t.Helper()
	o := new(optimizer)
	o.bind(p)
	defer o.unbind()
	if _, err := o.run(); err != nil {
		t.Fatal(err)
	}
	return outcome(o)
}

// runFull runs p's DP with all three parts of the pruning off: the
// per-pair table is built plan by plan (referenceTable, every entry lead
// and live), so every candidate is visited and priced, and
// PlansGenerated counts each candidate and each Sort under it one by one
// as its emitJoins call is visited.
func runFull(t *testing.T, p *Prepared) dpOutcome {
	t.Helper()
	o := new(optimizer)
	o.bind(p)
	defer o.unbind()
	n := len(p.g.Relations)
	o.basePlans(n)
	visit := func(pj *pairJoin, r1, r2 []sortEntry) {
		joins := int64(0)
		for _, off := range []bool{p.cfg.DisableNLJoin, p.cfg.DisableHashJoin} {
			if !off {
				joins++
			}
		}
		sorts := int64(0)
		for c := 1; c < len(r1); c++ {
			joins++
			for _, e := range []sortEntry{r1[c], r2[c]} {
				if !e.has {
					sorts++
				}
			}
		}
		priced := o.priced
		o.emitJoins(pj, r1, r2)
		if got := o.priced - priced; got != joins {
			t.Fatalf("emitJoins priced %d of %d candidates with the pruning off", got, joins)
		}
		o.generated += joins + sorts
	}
	EnumeratePairs(p.cfg.Enumerator, n, p.adj, func(s1, s2 uint64) {
		o.ccPairs++
		edges := o.edgesBetween(s1, s2)
		pj := pairJoin{mask: s1 | s2, edges: edges, out: p.maskCard(s1 | s2)}
		for _, e := range edges {
			if h := p.a.EdgeFD[e]; h >= 0 && h < 64 {
				pj.fdMask |= 1 << uint(h)
			}
		}
		l1, l2 := o.dp.get(s1), o.dp.get(s2)
		o.mergePreds(s1, edges)
		t1, t2 := referenceTable(o, 0, l1, edges), referenceTable(o, 1, l2, edges)
		np := len(o.preds) + 1
		for i := range l1 {
			for j := range l2 {
				r1, r2 := t1[i*np:(i+1)*np], t2[j*np:(j+1)*np]
				visit(&pj, r1, r2)
				visit(&pj, r2, r1)
			}
		}
	})
	if _, err := o.finish(uint64(1)<<uint(n) - 1); err != nil {
		t.Fatal(err)
	}
	return outcome(o)
}

// referenceTable is side k's rows of the per-pair table computed plan by
// plan: each plan's own Sort cost, SortMask and edges, every entry lead
// and live. sortTable must agree with it entry for entry
// (TestSortTableMatchesPerPlan).
func referenceTable(o *optimizer, k int, list []*plan.Node, edges []int) []sortEntry {
	var t []sortEntry
	for _, p := range list {
		asIs := sortEntry{p: p, has: true, lead: true, live: true, cost: p.Cost, state: p.State}
		if o.p.fw != nil {
			asIs.joined = o.applyEdges(p.State, edges)
		}
		t = append(t, asIs)
		for _, mp := range o.preds {
			e := asIs
			if ord := mp.ord[k]; !o.contains(p.State, ord) {
				e = sortEntry{p: p, lead: true, live: true, ord: ord, cost: p.Cost + plan.SortCost(p.Card)}
				if o.p.fw != nil {
					e.state = o.p.fw.SortMask(ord, p.FDMask)
					e.joined = o.applyEdges(e.state, edges)
				}
			}
			t = append(t, e)
		}
	}
	return t
}

// TestInnerPruningMatchesFullDP holds the pruning to the DP that visits
// and prices every candidate and counts them one by one (runFull): on
// seeded querygen graphs of five shapes at 3–8 relations (cliques to 6),
// with indexes, under ModeDFSM, every mask's final list (cost, state, plan) and
// the generated, retained and arena-node counts must be identical to the
// run's with the skip of non-leading inners and non-live outers
// (sortEntry), shared column sort states and arithmetic counts, and the
// run must price fewer candidates. Seed 0 also runs without nested-loop
// joins, so the operator count is not always two, and every seed also
// runs under EnumNaive, so the pruning holds for a second pair walk over
// the same dpTable. The naive subtests end in _lin: the suffix keeps the
// ids of the variant that ran the deleted second tier, whose own pair
// walk they replace. -exhaustive widens the seeds from 3 to 12.
func TestInnerPruningMatchesFullDP(t *testing.T) {
	seeds := 3
	if *exhaustive {
		seeds = 12
	}
	for _, shape := range []querygen.Shape{querygen.Chain, querygen.Star, querygen.Cycle, querygen.Clique, querygen.Grid} {
		for n := 3; n <= 8; n++ {
			if shape == querygen.Clique && n > 6 {
				continue
			}
			for seed := range int64(seeds) {
				for _, v := range []struct {
					noNL bool
					enum Enumerator
				}{{false, EnumDPccp}, {true, EnumDPccp}, {false, EnumNaive}} {
					if v.noNL && seed != 0 {
						continue
					}
					name := fmt.Sprintf("%s/n%d_s%d", shape, n, seed)
					if v.noNL {
						name += "_nonl"
					}
					if v.enum == EnumNaive {
						name += "_lin"
					}
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cfg := DefaultConfig(ModeDFSM)
						cfg.DisableNLJoin = v.noNL
						cfg.Enumerator = v.enum
						a := analyzeSpec(t, querygen.Spec{Shape: shape, Relations: n, Seed: seed, WithGroupBy: seed%2 == 1})
						p, err := Prepare(a, cfg)
						if err != nil {
							t.Fatal(err)
						}
						on, off := runPruned(t, p), runFull(t, p)
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
}

// TestSortTableMatchesPerPlan holds the per-pair table's shared column
// entries to the plan-by-plan computation they replace: on seeded
// querygen graphs of five shapes at 3–8 relations (cliques to 6), under
// ModeDFSM, the table sortTable builds for any two disjoint masks with
// plans and a crossing edge (every pair the DP joined among them) must
// carry, entry for entry, the plan, order, Sort cost, sorted state and
// joined state that referenceTable computes from each entry's own plan,
// its card and FD mask included. Subtest names keep their "exact/"
// prefix so their ids stay stable.
func TestSortTableMatchesPerPlan(t *testing.T) {
	for _, shape := range []querygen.Shape{querygen.Chain, querygen.Star, querygen.Cycle, querygen.Clique, querygen.Grid} {
		for n := 3; n <= 8; n++ {
			if shape == querygen.Clique && n > 6 {
				continue
			}
			for seed := range int64(2) {
				t.Run(fmt.Sprintf("exact/%s/n%d_s%d", shape, n, seed), func(t *testing.T) {
					t.Parallel()
					a := analyzeSpec(t, querygen.Spec{Shape: shape, Relations: n, Seed: seed, WithGroupBy: seed == 1})
					p, err := Prepare(a, DefaultConfig(ModeDFSM))
					if err != nil {
						t.Fatal(err)
					}
					o := new(optimizer)
					o.bind(p)
					defer o.unbind()
					if _, err := o.run(); err != nil {
						t.Fatal(err)
					}
					full, sorted := uint64(1)<<uint(n)-1, 0
					for s1 := uint64(1); s1 < full; s1++ {
						rest := full &^ s1
						for s2 := rest; s2 != 0; s2 = (s2 - 1) & rest {
							edges := o.edgesBetween(s1, s2)
							if len(o.dp.get(s1)) == 0 || len(o.dp.get(s2)) == 0 || len(edges) == 0 {
								continue
							}
							o.mergePreds(s1, edges)
							for k, s := range []uint64{s1, s2} {
								got := o.sortTable(k, o.dp.get(s), edges)
								for i, w := range referenceTable(o, k, o.dp.get(s), edges) {
									g := got[i]
									if g.p != w.p || g.has != w.has || g.cost != w.cost || g.state != w.state || g.joined != w.joined || g.ord != w.ord {
										t.Fatalf("masks %b, %b side %d entry %d: sortTable %+v, per plan %+v", s1, s2, k, i, g, w)
									}
									if !g.has {
										sorted++
									}
								}
							}
						}
					}
					if sorted == 0 {
						t.Fatal("no sorted entry compared")
					}
				})
			}
		}
	}
}

// TestServedQ8PricesLeadingInnersOnly pins the served Q8's counts, so a
// change that loses the inner or outer pruning fails here and not only
// in BenchmarkServedQ8: 10,552 candidates counted, at most 2,098 of
// them priced (a leading inner and a live outer entry; all 6,834 join
// candidates without the pruning), 834 arena nodes.
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
	if o.priced > 2098 || res.PlansGenerated != 10552 || o.nodes != 834 {
		t.Errorf("served Q8 priced %d, counted %d, arena nodes %d; want ≤ 2098, 10552, 834",
			o.priced, res.PlansGenerated, o.nodes)
	}
}
