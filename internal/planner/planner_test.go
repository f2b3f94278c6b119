package planner

import (
	"fmt"
	"sync"
	"testing"

	"orderopt/internal/optimizer"
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

// TestPlanSources walks one query through the three paths: cold, plan
// cache hit, and (with the plan cache disabled) prepared re-runs.
func TestPlanSources(t *testing.T) {
	p := newTestPlanner(t, optimizer.ModeDFSM)
	first, err := p.Plan(testQueries[0])
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
	second, err := p.Plan(testQueries[0])
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

	// Plan cache off: repeated calls re-run the DP on the prepared
	// statement and must reproduce the cold plan exactly.
	cfg := DefaultConfig(tpcr.Schema())
	cfg.PlanCacheSize = -1
	pc := New(cfg)
	cold, err := pc.Plan(testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		warm, err := pc.Plan(testQueries[0])
		if err != nil {
			t.Fatal(err)
		}
		if warm.Source != SourcePrepared {
			t.Errorf("warm plan: source %v, want prepared", warm.Source)
		}
		if warm.Origin == nil {
			t.Errorf("prepared plan carries no Origin")
		}
		if warm.Cost != cold.Cost || warm.Best.String() != cold.Best.String() {
			t.Errorf("warm run diverged from cold run")
		}
	}
}

// TestPlanMatchesOneShotOptimizer pins the planner's results to the
// one-shot optimizer.Optimize path for every test query and both modes.
func TestPlanMatchesOneShotOptimizer(t *testing.T) {
	for _, mode := range []optimizer.Mode{optimizer.ModeDFSM, optimizer.ModeSimmen} {
		p := newTestPlanner(t, mode)
		for _, sql := range testQueries {
			got, err := p.Plan(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			q, err := p.Prepare(sql)
			if err != nil {
				t.Fatal(err)
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
// prepared cache, the plan cache, and the scratch pools are all
// contended) and every result must be identical to the serial cold
// reference. Run with -race.
func TestParallelPlanThroughOnePlanner(t *testing.T) {
	const goroutines = 12
	const iters = 8
	for _, mode := range []optimizer.Mode{optimizer.ModeDFSM, optimizer.ModeSimmen} {
		for _, cache := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/cache=%v", mode, cache), func(t *testing.T) {
				cfg := DefaultConfig(tpcr.Schema())
				cfg.Optimizer = optimizer.DefaultConfig(mode)
				if !cache {
					cfg.PlanCacheSize = -1
				}
				p := New(cfg)

				// Serial cold reference per query.
				want := make(map[string]string, len(testQueries))
				wantCost := make(map[string]float64, len(testQueries))
				for _, sql := range testQueries {
					ref := New(cfg)
					res, err := ref.Plan(sql)
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
							res, err := p.Plan(sql)
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
					t.Errorf("no plan-cache hits across %d calls", st.PlanCalls)
				}
				if !cache && st.PlanCacheHits != 0 {
					t.Errorf("plan-cache hits with the cache disabled")
				}
			})
		}
	}
}

// TestParallelPreparedGraph drives one PreparedQuery (built from a
// generated graph) from many goroutines with the plan cache disabled,
// forcing concurrent DP runs through the scratch pool.
func TestParallelPreparedGraph(t *testing.T) {
	for _, mode := range []optimizer.Mode{optimizer.ModeDFSM, optimizer.ModeSimmen} {
		t.Run(mode.String(), func(t *testing.T) {
			_, g, err := querygen.Generate(querygen.Spec{Relations: 6, ExtraEdges: 1, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Analyze:       query.AnalyzeOptions{UseIndexes: true},
				Optimizer:     optimizer.DefaultConfig(mode),
				PlanCacheSize: -1,
			}
			p := New(cfg)
			q, err := p.PrepareGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := q.Plan()
			if err != nil {
				t.Fatal(err)
			}

			const goroutines = 8
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < 4; j++ {
						res, err := q.Plan()
						if err != nil {
							errs <- err
							return
						}
						if res.Cost != ref.Cost || res.Best.String() != ref.Best.String() {
							errs <- fmt.Errorf("parallel run diverged: cost %v vs %v", res.Cost, ref.Cost)
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
		})
	}
}

// TestConcurrentPrepareSharedGraph: concurrent PrepareGraph calls on
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
			q, err := p.PrepareGraph(g)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := q.Plan()
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

// TestPlanCacheSharedAcrossSpellings: two different SQL spellings of the
// same query share one plan-cache entry through the canonical
// fingerprint.
func TestPlanCacheSharedAcrossSpellings(t *testing.T) {
	p := newTestPlanner(t, optimizer.ModeDFSM)
	a := "select * from orders, lineitem where o_orderkey = l_orderkey order by o_orderkey"
	b := "select * from orders, lineitem where l_orderkey = o_orderkey order by o_orderkey"
	ra, err := p.Plan(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := p.Plan(b)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Source != SourceCacheHit {
		t.Errorf("different spelling missed the plan cache (source %v)", rb.Source)
	}
	if ra.Cost != rb.Cost {
		t.Errorf("costs differ across spellings: %v vs %v", ra.Cost, rb.Cost)
	}
}

// TestPreparedCacheIdentity: repeated Prepare returns the same
// PreparedQuery instance.
func TestPreparedCacheIdentity(t *testing.T) {
	p := newTestPlanner(t, optimizer.ModeDFSM)
	q1, err := p.Prepare(testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	q2, err := p.Prepare(testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Errorf("repeated Prepare returned a different instance")
	}
}

// TestPlanCacheEviction: a bounded cache stays bounded and keeps
// returning correct plans after eviction.
func TestPlanCacheEviction(t *testing.T) {
	cfg := Config{
		Analyze:       query.AnalyzeOptions{UseIndexes: true},
		Optimizer:     optimizer.DefaultConfig(optimizer.ModeDFSM),
		PlanCacheSize: 2,
	}
	p := New(cfg)
	var prepared []*PreparedQuery
	var costs []float64
	for seed := int64(0); seed < 5; seed++ {
		_, g, err := querygen.Generate(querygen.Spec{Relations: 5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		q, err := p.PrepareGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Plan()
		if err != nil {
			t.Fatal(err)
		}
		prepared = append(prepared, q)
		costs = append(costs, res.Cost)
	}
	if got := p.plans.Len(); got > 2 {
		t.Errorf("plan cache grew to %d entries, cap 2", got)
	}
	for i, q := range prepared {
		res, err := q.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != costs[i] {
			t.Errorf("query %d: cost %v after eviction churn, want %v", i, res.Cost, costs[i])
		}
	}
}

// TestPlanCacheCollisionGuard: a fingerprint hit with a different
// canonical encoding must miss instead of returning a wrong plan.
func TestPlanCacheCollisionGuard(t *testing.T) {
	c := newPlanCache(8)
	c.store(7, []byte("canon-a"), nil, 1, nil)
	if _, ok := c.lookup(7, []byte("canon-b")); ok {
		t.Errorf("colliding fingerprint with different canonical bytes hit the cache")
	}
	if _, ok := c.lookup(7, []byte("canon-a")); !ok {
		t.Errorf("exact canonical match missed")
	}
}

// TestNoCatalog: SQL planning without a catalog fails cleanly;
// graph planning still works.
func TestNoCatalog(t *testing.T) {
	p := New(Config{
		Analyze:   query.AnalyzeOptions{UseIndexes: true},
		Optimizer: optimizer.DefaultConfig(optimizer.ModeDFSM),
	})
	if _, err := p.Plan("select * from t"); err == nil {
		t.Errorf("SQL planning without a catalog succeeded")
	}
	_, g, err := querygen.Generate(querygen.Spec{Relations: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q, err := p.PrepareGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Plan(); err != nil {
		t.Fatal(err)
	}
}

// TestPerStrategyStats: the planner splits its DP-run counter by the
// planning tier the optimizer's auto strategy resolved to, and large
// graphs plan through the same prepared/plan-cache machinery as small
// ones.
func TestPerStrategyStats(t *testing.T) {
	p := newTestPlanner(t, optimizer.ModeDFSM)

	// Q8 (8 relations) resolves to the exact tier under auto.
	if _, err := p.Plan(tpcr.Query8SQL); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.PlanRunsExact != 1 || st.PlanRunsLinearized != 0 {
		t.Fatalf("after Q8: exact %d linearized %d, want 1/0", st.PlanRunsExact, st.PlanRunsLinearized)
	}

	// A clique-20 resolves to the linearized tier.
	_, g, err := querygen.Generate(querygen.Spec{Relations: 20, Shape: querygen.Clique, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q, err := p.PrepareGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Prepared().Strategy(); got != optimizer.StrategyLinearized {
		t.Fatalf("clique-20 resolved to %s, want linearized", got)
	}
	first, err := q.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if first.Best == nil || first.Cost <= 0 {
		t.Fatal("no linearized plan through the planner")
	}
	st = p.Stats()
	if st.PlanRunsExact != 1 || st.PlanRunsLinearized != 1 {
		t.Fatalf("after clique-20: exact %d linearized %d, want 1/1", st.PlanRunsExact, st.PlanRunsLinearized)
	}

	// Replanning the same graph hits the plan cache, not the DP.
	again, err := q.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if again.Source != SourceCacheHit || again.Cost != first.Cost {
		t.Fatalf("replan: source %v cost %v, want cachehit at cost %v", again.Source, again.Cost, first.Cost)
	}
	st = p.Stats()
	if st.PlanRunsLinearized != 1 || st.PlanCacheHits != 1 {
		t.Fatalf("replan counters: linearized %d cachehits %d, want 1/1", st.PlanRunsLinearized, st.PlanCacheHits)
	}
}
