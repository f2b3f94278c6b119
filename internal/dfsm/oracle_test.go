package dfsm_test

import (
	"fmt"
	"testing"

	"orderopt/internal/core"
	"orderopt/internal/dfsm"
	"orderopt/internal/nfsm"
	"orderopt/internal/query"
	"orderopt/internal/querygen"
	"orderopt/internal/tpcr"
)

// TestConvertMatchesReferenceQueries holds Convert to the reference
// construction on the machines the benchmarks and paper tables are made
// of: TPC-R Q8 as §6.2 prepares it (pruning off and on) and as the
// planner serves it, and the Figure 13 sweep points.
func TestConvertMatchesReferenceQueries(t *testing.T) {
	check := func(name string, g *query.Graph, ao query.AnalyzeOptions, co core.Options) {
		t.Helper()
		a, err := query.Analyze(g, ao)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fw, err := a.Prepare(co)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := dfsm.ConvertReference(fw.NFSM(), dfsm.Options{
			MaxStates:           co.MaxDFSMStates,
			MaxSimulationStates: co.MaxSimulationStates,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := dfsm.DiffMachines(fw.DFSM(), want); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}

	served := core.DefaultOptions()
	served.TrackEmptyOrdering = true
	served.MaxSimulationStates = 512

	_, q8, err := tpcr.Query8Graph()
	if err != nil {
		t.Fatal(err)
	}
	check("q8 prep, no pruning", q8, query.AnalyzeOptions{}, core.Options{Pruning: nfsm.NoPruning()})
	check("q8 prep, pruning", q8, query.AnalyzeOptions{}, core.Options{Pruning: nfsm.AllPruning()})
	check("q8 served", q8, query.AnalyzeOptions{UseIndexes: true}, served)

	for _, extra := range []int{0, 1, 2} {
		for _, n := range []int{5, 6, 7, 8, 9, 10} {
			for seed := 0; seed < 2; seed++ {
				_, g, err := querygen.Generate(querygen.Spec{
					Relations: n, ExtraEdges: extra,
					Seed: int64(seed)*1000 + int64(n)*10 + int64(extra),
				})
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("fig13 n=%d extra=%d seed=%d", n, extra, seed),
					g, query.AnalyzeOptions{UseIndexes: true}, served)
			}
		}
	}
}
