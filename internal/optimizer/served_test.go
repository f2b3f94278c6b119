package optimizer

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"orderopt/internal/core"
	"orderopt/internal/plan"
	"orderopt/internal/query"
	"orderopt/internal/sqlparse"
	"orderopt/internal/tpcr"
)

// servedQ8SQL is TPC-R Q8 as the plan_novel workload sends it: the
// paper's statement with a limit appended.
const servedQ8SQL = tpcr.Query8SQL + " limit 100"

// servedQ8 analyzes sql the way the planner serves a statement: parsed
// and bound through sqlparse against the TPC-R schema, then analyzed
// with index orders on. Unlike the hand-built tpcr.Query8Graph, this is
// the statement whose 17-state NFSM and 24-state DFSM plan_novel plans.
func servedQ8(tb testing.TB, sql string) *query.Analysis {
	tb.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		tb.Fatal(err)
	}
	bq, err := sqlparse.Bind(stmt, tpcr.Schema())
	if err != nil {
		tb.Fatal(err)
	}
	a, err := query.Analyze(bq.Graph, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// BenchmarkServedQ8 splits the served statement's cold planning into
// its two optimizer layers: prepare (the analysis's framework — NFSM,
// DFSM, tables — and the estimates) and run (the DP on warm pooled
// scratch). Binding and analysis happen outside the timer, once per
// op for prepare (an Analysis is single-use per framework). Both report
// per run the candidates counted (PlansGenerated), the join candidates
// priced (those of a leading inner and a live outer entry: sortEntry.lead
// and sortEntry.live) and the arena nodes written.
//
//	go test -run '^$' -bench BenchmarkServedQ8 -benchmem ./internal/optimizer
func BenchmarkServedQ8(b *testing.B) {
	cfg := DefaultConfig(ModeDFSM)
	report := func(b *testing.B, p *Prepared) {
		o := new(optimizer)
		res, err := o.plan(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.PlansGenerated), "candidates/op")
		b.ReportMetric(float64(o.priced), "priced/op")
		b.ReportMetric(float64(o.nodes), "arena-nodes/op")
	}
	b.Run("prepare", func(b *testing.B) {
		b.ReportAllocs()
		var p *Prepared
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			a := servedQ8(b, fmt.Sprintf("%s limit %d", tpcr.Query8SQL, i+1))
			b.StartTimer()
			var err error
			if p, err = Prepare(a, cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		report(b, p)
	})
	b.Run("run", func(b *testing.B) {
		p, err := Prepare(servedQ8(b, servedQ8SQL), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Run(); err != nil { // warm the pooled scratch
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Run(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		report(b, p)
	})
}

// TestOfferMatchesReference holds admit's superset row and offer's
// same-state floor to the dominance check they replace, written with
// SubsetOf: on the served Q8 framework, seeded plan lists receive seeded
// runs of candidates, each run one emitJoins call (the floor starts
// empty, states repeat, costs tie). Every candidate must get the
// reference's verdict and insertion point; admitted ones are inserted,
// so later candidates meet lists the run itself changed.
func TestOfferMatchesReference(t *testing.T) {
	p, err := Prepare(servedQ8(t, servedQ8SQL), DefaultConfig(ModeDFSM))
	if err != nil {
		t.Fatal(err)
	}
	fw := p.Framework()
	nStates := fw.DFSM().NumStates()
	reference := func(list []*plan.Node, cost float64, state core.State) (int, bool) {
		t := len(list)
		for i, q := range list {
			if q.Cost >= cost {
				t = i
				break
			}
			if fw.SubsetOf(state, q.State) {
				return 0, false
			}
		}
		for i := t; i < len(list) && list[i].Cost == cost; i++ {
			if fw.SubsetOf(state, list[i].State) {
				return 0, false
			}
		}
		return t, true
	}

	o := new(optimizer)
	o.bind(p)
	defer o.unbind()
	const mask = 1
	offers, admitted, floored := 0, 0, 0
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o.dp.set(mask, nil)
		pool := make([]core.State, 1+rng.Intn(4))
		for i := range pool {
			pool[i] = core.State(rng.Intn(nStates))
		}
		for run := 0; run < 4; run++ {
			o.floor = o.floor[:0]
			for c := 0; c < 1+rng.Intn(8); c++ {
				cost, state := float64(rng.Intn(8)), pool[rng.Intn(len(pool))]
				wantAt, wantOK := reference(o.dp.get(mask), cost, state)
				rowAt, rowOK := o.admit(mask, cost, state)
				if i := slices.IndexFunc(o.floor, func(f offered) bool { return f.state == state }); i >= 0 && cost >= o.floor[i].cost {
					floored++
				}
				at, ok := o.offer(mask, cost, state)
				if at != wantAt || ok != wantOK || rowAt != wantAt || rowOK != wantOK {
					t.Fatalf("seed %d: offer(cost %v, state %d) = %d, %v and admit %d, %v; reference %d, %v",
						seed, cost, state, at, ok, rowAt, rowOK, wantAt, wantOK)
				}
				offers++
				if ok {
					admitted++
					n := o.node()
					*n = plan.Node{Cost: cost, State: state}
					o.insert(mask, at, n)
				}
			}
		}
	}
	if admitted == 0 || admitted == offers || floored == 0 {
		t.Fatalf("%d of %d offers admitted, %d stopped by the floor: the cases exercise nothing", admitted, offers, floored)
	}
	t.Logf("%d offers, %d admitted, %d stopped by the floor", offers, admitted, floored)
}
