package planner

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"orderopt/internal/optimizer"
	"orderopt/internal/plan"
	"orderopt/internal/query"
	"orderopt/internal/querygen"
	"orderopt/internal/tpcr"
)

var testQueries = []string{
	"select * from orders, lineitem where o_orderkey = l_orderkey order by o_orderkey",
	"select * from customer, orders, lineitem where c_custkey = o_custkey and o_orderkey = l_orderkey order by c_custkey",
	"select * from supplier, nation where s_nationkey = n_nationkey group by n_name order by n_name",
	tpcr.Query8SQL,
}

func newTestPlanner(t testing.TB, mode optimizer.Mode) *Planner {
	t.Helper()
	cfg := DefaultConfig(tpcr.Schema())
	cfg.Optimizer = optimizer.DefaultConfig(mode)
	return New(cfg)
}

// TestPlanSources walks one query through the three paths: cold, the
// statement's stored plan, and a statement prepared by an earlier call
// that had not planned it yet.
func TestPlanSources(t *testing.T) {
	p := newTestPlanner(t, optimizer.ModeDFSM)
	first, err := p.PlanContext(context.Background(), testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != SourceCold {
		t.Errorf("first plan: source %v, want cold", first.Source)
	}
	if first.Result == nil {
		t.Errorf("cold plan carries no Result")
	}
	if first.Origin == nil {
		t.Errorf("cold plan carries no Origin")
	}
	second, err := p.PlanContext(context.Background(), testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != SourceCacheHit {
		t.Errorf("second plan: source %v, want cachehit", second.Source)
	}
	if second.Result != nil {
		t.Errorf("cache hit carries a Result")
	}
	if second.Origin != first.Origin {
		t.Errorf("cache hit Origin %p, want the cold run's %p", second.Origin, first.Origin)
	}
	if second.Cost != first.Cost {
		t.Errorf("cache hit cost %v != cold cost %v", second.Cost, first.Cost)
	}
	if second.Best.String() != first.Best.String() {
		t.Errorf("cache hit plan differs from cold plan:\n%s\nvs\n%s", second.Best, first.Best)
	}

	st := p.Stats()
	if st.Prepares != 1 || st.PreparedHits != 1 || st.PlanCacheHits != 1 || st.PlanRuns != 1 {
		t.Errorf("stats = %+v, want 1 prepare, 1 prepared hit, 1 cache hit, 1 run", st)
	}

	// A statement cached by an earlier call that has not planned it yet:
	// the first plan call runs only the DP and stores its plan, the next
	// one hits it.
	pc := newTestPlanner(t, optimizer.ModeDFSM)
	q, _, err := pc.prepare(testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []Source{SourcePrepared, SourceCacheHit} {
		warm, err := pc.PlanContext(context.Background(), testQueries[0])
		if err != nil {
			t.Fatal(err)
		}
		if warm.Source != want {
			t.Errorf("warm plan: source %v, want %v", warm.Source, want)
		}
		if warm.Origin != q {
			t.Errorf("warm plan Origin %p, want the prepared statement %p", warm.Origin, q)
		}
		if warm.Cost != first.Cost || warm.Best.String() != first.Best.String() {
			t.Errorf("warm run diverged from cold run")
		}
	}
	// Re-running the DP on the statement reproduces the cold plan exactly.
	for i := 0; i < 3; i++ {
		res, err := q.Prepared().Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Cost != first.Cost || res.Best.String() != first.Best.String() {
			t.Errorf("re-run %d diverged from cold run", i)
		}
	}
}

// TestPlanMatchesOneShotOptimizer pins the planner's results to the
// one-shot optimizer.Optimize path for every test query and both modes.
func TestPlanMatchesOneShotOptimizer(t *testing.T) {
	for _, mode := range []optimizer.Mode{optimizer.ModeDFSM, optimizer.ModeSimmen} {
		p := newTestPlanner(t, mode)
		for _, sql := range testQueries {
			got, q, err := p.PlanQueryContext(context.Background(), sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			a, err := query.Analyze(q.Analysis().Graph, p.cfg.Analyze)
			if err != nil {
				t.Fatal(err)
			}
			want, err := optimizer.Optimize(a, p.cfg.Optimizer)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cost != want.Best.Cost {
				t.Errorf("%s [%s]: planner cost %v, optimizer cost %v", sql, mode, got.Cost, want.Best.Cost)
			}
			if got.Best.String() != want.Best.String() {
				t.Errorf("%s [%s]: plans differ:\n%s\nvs\n%s", sql, mode, got.Best, want.Best)
			}
		}
	}
}

// TestParallelPlanThroughOnePlanner is the concurrency contract: many
// goroutines plan a mixed workload through one shared Planner (so the
// prepared cache, the statements' stored plans, and the scratch pools
// are all contended; with the cache off every call plans cold) and
// every result must be identical to the serial cold reference. Run
// with -race.
func TestParallelPlanThroughOnePlanner(t *testing.T) {
	const goroutines = 12
	const iters = 8
	for _, mode := range []optimizer.Mode{optimizer.ModeDFSM, optimizer.ModeSimmen} {
		for _, cache := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/cache=%v", mode, cache), func(t *testing.T) {
				cfg := DefaultConfig(tpcr.Schema())
				cfg.Optimizer = optimizer.DefaultConfig(mode)
				if !cache {
					cfg.PreparedCacheSize = -1
				}
				p := New(cfg)

				// Serial cold reference per query.
				want := make(map[string]string, len(testQueries))
				wantCost := make(map[string]float64, len(testQueries))
				for _, sql := range testQueries {
					ref := New(cfg)
					res, err := ref.PlanContext(context.Background(), sql)
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					want[sql] = res.Best.String()
					wantCost[sql] = res.Cost
				}

				var wg sync.WaitGroup
				errs := make(chan error, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < iters; i++ {
							sql := testQueries[(g+i)%len(testQueries)]
							res, err := p.PlanContext(context.Background(), sql)
							if err != nil {
								errs <- fmt.Errorf("%s: %w", sql, err)
								return
							}
							if res.Cost != wantCost[sql] {
								errs <- fmt.Errorf("%s: cost %v, want %v", sql, res.Cost, wantCost[sql])
								return
							}
							if res.Best.String() != want[sql] {
								errs <- fmt.Errorf("%s: plan shape diverged under concurrency", sql)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}

				st := p.Stats()
				if st.PlanCalls != goroutines*iters {
					t.Errorf("plan calls %d, want %d", st.PlanCalls, goroutines*iters)
				}
				if cache && st.PlanCacheHits == 0 {
					t.Errorf("no stored-plan hits across %d calls", st.PlanCalls)
				}
				if !cache && (st.PlanCacheHits != 0 || st.PlanRuns != st.PlanCalls) {
					t.Errorf("%d stored-plan hits and %d DP runs of %d calls with the cache disabled, want 0 and all",
						st.PlanCacheHits, st.PlanRuns, st.PlanCalls)
				}
			})
		}
	}
}

// TestParallelPreparedGraph drives one PreparedQuery (built from a
// generated graph) from many goroutines: they race to plan it first and
// must all answer with the one plan stored, then re-run its DP
// concurrently through the scratch pool.
func TestParallelPreparedGraph(t *testing.T) {
	for _, mode := range []optimizer.Mode{optimizer.ModeDFSM, optimizer.ModeSimmen} {
		t.Run(mode.String(), func(t *testing.T) {
			_, g, err := querygen.Generate(querygen.Spec{Relations: 6, ExtraEdges: 1, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Analyze:   query.AnalyzeOptions{UseIndexes: true},
				Optimizer: optimizer.DefaultConfig(mode),
			}
			p := New(cfg)
			ref, err := New(cfg).prepareGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.plan(SourcePrepared)
			if err != nil {
				t.Fatal(err)
			}
			q, err := p.prepareGraph(g)
			if err != nil {
				t.Fatal(err)
			}

			const goroutines = 8
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			firsts := make([]*plan.Node, goroutines)
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					first, err := q.plan(SourcePrepared)
					if err != nil {
						errs <- err
						return
					}
					firsts[i] = first.Best
					for j := 0; j < 4; j++ {
						res, err := q.Prepared().Run()
						if err != nil {
							errs <- err
							return
						}
						if res.Best.Cost != want.Cost || res.Best.String() != want.Best.String() {
							errs <- fmt.Errorf("parallel run diverged: cost %v vs %v", res.Best.Cost, want.Cost)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			stored, err := q.plan(SourcePrepared)
			if err != nil {
				t.Fatal(err)
			}
			if stored.Source != SourceCacheHit || stored.Best.String() != want.Best.String() {
				t.Errorf("after the race: source %v, plan\n%s\nwant a cache hit of\n%s", stored.Source, stored.Best, want.Best)
			}
			for i, best := range firsts {
				if best != nil && best != stored.Best {
					t.Errorf("goroutine %d answered its first Plan with another tree than the stored one", i)
				}
			}
		})
	}
}

// TestConcurrentPrepareSharedGraph: concurrent preparations of
// one shared, freshly generated graph (lazy EdgeMasks not yet built)
// must be race-free and agree on the plan. Run with -race.
func TestConcurrentPrepareSharedGraph(t *testing.T) {
	_, g, err := querygen.Generate(querygen.Spec{Relations: 5, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Analyze:   query.AnalyzeOptions{UseIndexes: true},
		Optimizer: optimizer.DefaultConfig(optimizer.ModeDFSM),
	}
	p := New(cfg)
	const goroutines = 8
	costs := make([]float64, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q, err := p.prepareGraph(g)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := q.plan(SourcePrepared)
			if err != nil {
				errs[i] = err
				return
			}
			costs[i] = res.Cost
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if costs[i] != costs[0] {
			t.Errorf("goroutine %d: cost %v, goroutine 0 got %v", i, costs[i], costs[0])
		}
	}
}

// TestPreparedCacheIdentity: planning a statement again answers from
// the same PreparedQuery instance.
func TestPreparedCacheIdentity(t *testing.T) {
	p := newTestPlanner(t, optimizer.ModeDFSM)
	_, q1, err := p.PlanQueryContext(context.Background(), testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	_, q2, err := p.PlanQueryContext(context.Background(), testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Errorf("planning the statement again returned a different instance")
	}
}

// TestPlanCacheEviction: the statement cache stays bounded, an evicted
// statement takes its plan with it — its next Plan is cold again — and
// every plan stays correct through the churn.
func TestPlanCacheEviction(t *testing.T) {
	cfg := DefaultConfig(tpcr.Schema())
	cfg.PreparedCacheSize = 2
	p := New(cfg)
	sql := func(k int) string { return fmt.Sprintf("%s limit %d", testQueries[0], k) }
	var costs []float64
	for k := 1; k <= 5; k++ {
		pd, err := p.PlanContext(context.Background(), sql(k))
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, pd.Cost)
	}
	if st := p.Stats(); st.PreparedEntries != 2 || st.PlanCacheEntries != 2 {
		t.Errorf("after 5 statements: %d cached, %d with a plan; want 2 and 2 (cap 2)", st.PreparedEntries, st.PlanCacheEntries)
	}
	for k := 1; k <= 5; k++ {
		pd, err := p.PlanContext(context.Background(), sql(k))
		if err != nil {
			t.Fatal(err)
		}
		if pd.Source != SourceCold {
			t.Errorf("limit %d: source %v after eviction churn, want cold", k, pd.Source)
		}
		if pd.Cost != costs[k-1] {
			t.Errorf("limit %d: cost %v after eviction churn, want %v", k, pd.Cost, costs[k-1])
		}
	}
	// A statement that is cached but not yet planned holds no plan.
	if _, _, err := p.prepare(sql(6)); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.PreparedEntries != 2 || st.PlanCacheEntries != 1 {
		t.Errorf("after an unplanned prepare: %d cached, %d with a plan; want 2 and 1", st.PreparedEntries, st.PlanCacheEntries)
	}
}

// TestNoCatalog: SQL planning without a catalog fails cleanly.
func TestNoCatalog(t *testing.T) {
	p := New(Config{
		Analyze:   query.AnalyzeOptions{UseIndexes: true},
		Optimizer: optimizer.DefaultConfig(optimizer.ModeDFSM),
	})
	if _, err := p.PlanContext(context.Background(), "select * from t"); err == nil {
		t.Errorf("SQL planning without a catalog succeeded")
	}
}
