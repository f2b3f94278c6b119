package optimizer

import (
	"slices"
	"testing"

	"orderopt/internal/query"
	"orderopt/internal/querygen"
	"orderopt/internal/simmen"
	"orderopt/internal/tpcr"
)

// TestScratchCarriesNothingAcrossStatements runs statements of different
// sizes, shapes, modes and DP tables (the cycle-17 plans on the sparse
// table, the rest on the dense one) back to back on one scratch — a
// 10-relation statement first, so everything after it sees stale plan
// lists beyond its own 1<<n, a dirty arena and whatever flags came
// before — and holds every run to a run of the same Prepared on fresh
// scratch, which must leave no Simmen annotation behind. The first
// statement inherits a run that never unbound, as a panic between bind
// and unbind would leave it.
func TestScratchCarriesNothingAcrossStatements(t *testing.T) {
	q8 := func() *query.Analysis {
		_, g, err := tpcr.Query8Graph()
		if err != nil {
			t.Fatal(err)
		}
		a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	naive := DefaultConfig(ModeDFSM)
	naive.Enumerator = EnumNaive
	steps := []struct {
		name string
		a    *query.Analysis
		cfg  Config
	}{
		{"chain-10", analyzeSpec(t, querygen.Spec{Relations: 10, ExtraEdges: 2, Seed: 3}), DefaultConfig(ModeDFSM)},
		{"q8", q8(), DefaultConfig(ModeDFSM)},
		{"chain-3", analyzeSpec(t, querygen.Spec{Relations: 3, Seed: 5}), DefaultConfig(ModeDFSM)},
		{"cycle-17", analyzeSpec(t, querygen.Spec{Shape: querygen.Cycle, Relations: 17, Seed: 7}), DefaultConfig(ModeDFSM)},
		{"chain-4 simmen", analyzeSpec(t, querygen.Spec{Relations: 4, Seed: 9}), DefaultConfig(ModeSimmen)},
		{"q8 naive", q8(), naive},
		{"chain-3 again", analyzeSpec(t, querygen.Spec{Relations: 3, Seed: 5}), DefaultConfig(ModeDFSM)},
	}

	shared := new(optimizer)
	abandoned, err := Prepare(analyzeSpec(t, querygen.Spec{Relations: 9, Seed: 11}), DefaultConfig(ModeSimmen))
	if err != nil {
		t.Fatal(err)
	}
	shared.bind(abandoned)
	if _, err := shared.run(); err != nil {
		t.Fatal(err)
	}

	for _, st := range steps {
		p, err := Prepare(st.a, st.cfg)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		got, err := shared.plan(p)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		want, err := new(optimizer).plan(p)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if got.PlansRetained != want.PlansRetained || got.PlansGenerated != want.PlansGenerated ||
			got.CsgCmpPairs != want.CsgCmpPairs {
			t.Errorf("%s: shared scratch retained/generated/pairs %d/%d/%d, fresh %d/%d/%d", st.name,
				got.PlansRetained, got.PlansGenerated, got.CsgCmpPairs,
				want.PlansRetained, want.PlansGenerated, want.CsgCmpPairs)
		}
		if got.Best.Cost != want.Best.Cost || got.Best.String() != want.Best.String() {
			t.Errorf("%s: shared scratch plan differs from fresh scratch:\n%s\nvs\n%s", st.name, got.Best, want.Best)
		}
		if shared.p != nil || shared.sim != nil {
			t.Errorf("%s: scratch still bound after the run", st.name)
		}
		if len(shared.anns) != 0 || slices.ContainsFunc(shared.anns[:cap(shared.anns)], func(a *simmen.Annotation) bool { return a != nil }) {
			t.Errorf("%s: Simmen annotation table not emptied after the run", st.name)
		}
	}
}

// TestCandidatesBuiltOnAdmit holds the join DP to pricing before
// building: a DFSM Q8 run counts 10,536 candidates (the golden's
// #Plans) but writes an arena node only for those that enter a plan
// list, their Sorts and the final plans — under a thousand, where one
// node per candidate would be 10,536. A steady-state Run then makes
// at most 30 allocations (the Result, the detached best plan).
func TestCandidatesBuiltOnAdmit(t *testing.T) {
	_, g, err := tpcr.Query8Graph()
	if err != nil {
		t.Fatal(err)
	}
	a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(a, DefaultConfig(ModeDFSM))
	if err != nil {
		t.Fatal(err)
	}
	o := new(optimizer)
	res, err := o.plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlansGenerated != 10536 {
		t.Errorf("Q8 counted %d candidates, want 10536", res.PlansGenerated)
	}
	if o.nodes >= 1000 {
		t.Errorf("Q8 handed out %d arena nodes for %d candidates, want fewer than 1000", o.nodes, res.PlansGenerated)
	}
	t.Logf("Q8: %d candidates counted, %d priced, %d retained, %d arena nodes", res.PlansGenerated, o.priced, res.PlansRetained, o.nodes)

	if _, err := p.Run(); err != nil { // warm the pooled scratch
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = p.Run() }); allocs > 30 {
		t.Errorf("a steady-state Q8 Run makes %.0f allocations, want at most 30", allocs)
	}
}
