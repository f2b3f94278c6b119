package dfsm_test

import (
	"fmt"
	"slices"
	"testing"

	"orderopt/internal/core"
	"orderopt/internal/dfsm"
	"orderopt/internal/nfsm"
	"orderopt/internal/query"
	"orderopt/internal/querygen"
	"orderopt/internal/sqlparse"
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

// TestSupersetRowMatchesSubsetOf checks the plan pruner's one-row form
// of dominance against SubsetOf on every state pair of the frameworks
// it serves: TPC-R Q8 as plan_novel sends it (bound through sqlparse)
// and the Figure 13 sweep points. Bit b of a's row must be SubsetOf(a,
// b), and no bit past the last state may be set.
func TestSupersetRowMatchesSubsetOf(t *testing.T) {
	served := core.DefaultOptions()
	served.TrackEmptyOrdering = true
	served.MaxSimulationStates = 512
	check := func(name string, g *query.Graph) {
		t.Helper()
		a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fw, err := a.Prepare(served)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := fw.DFSM()
		n := m.NumStates()
		for a := 0; a < n; a++ {
			row := m.SupersetRow(dfsm.StateID(a))
			if len(row) != (n+63)/64 {
				t.Fatalf("%s: state %d's row has %d words for %d states", name, a, len(row), n)
			}
			for b := 0; b < 64*len(row); b++ {
				got := row[b/64]&(1<<(b%64)) != 0
				if want := b < n && m.SubsetOf(dfsm.StateID(a), dfsm.StateID(b)); got != want {
					t.Errorf("%s: SupersetRow(%d) bit %d = %v, SubsetOf(%d, %d) = %v", name, a, b, got, a, b, want)
				}
			}
			if !slices.Equal(fw.SupersetRow(core.State(a)), row) {
				t.Errorf("%s: core.SupersetRow(%d) differs from the DFSM's row", name, a)
			}
		}
	}

	stmt, err := sqlparse.Parse(tpcr.Query8SQL + " limit 100")
	if err != nil {
		t.Fatal(err)
	}
	bq, err := sqlparse.Bind(stmt, tpcr.Schema())
	if err != nil {
		t.Fatal(err)
	}
	check("q8 served", bq.Graph)
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
				check(fmt.Sprintf("fig13 n=%d extra=%d seed=%d", n, extra, seed), g)
			}
		}
	}
}
