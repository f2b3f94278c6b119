package planner

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"orderopt/internal/optimizer"
	"orderopt/internal/querygen"
	"orderopt/internal/tpcr"
)

// TestSharedScratchAcrossStatements: the DP scratch belongs to the
// process, so statements of different sizes, shapes and order
// frameworks trade the same arenas and tables. Goroutines interleave Q8,
// a two-relation top-k, a chain-12, a clique-8 and —
// through a second planner — the Simmen baseline, with the statement cache
// off so every call prepares and runs the DP; every plan must equal its
// serial cold reference in cost and tree. Run with -race.
func TestSharedScratchAcrossStatements(t *testing.T) {
	cfg := func(mode optimizer.Mode) Config {
		c := DefaultConfig(tpcr.Schema())
		c.Optimizer = optimizer.DefaultConfig(mode)
		c.PreparedCacheSize = -1
		return c
	}
	dfsm, simmen := New(cfg(optimizer.ModeDFSM)), New(cfg(optimizer.ModeSimmen))

	type job struct {
		name string
		plan func(*Planner) (Planned, error)
	}
	sql := func(text string) func(*Planner) (Planned, error) {
		return func(p *Planner) (Planned, error) { return p.PlanContext(context.Background(), text) }
	}
	gen := func(spec querygen.Spec) func(*Planner) (Planned, error) {
		_, g, err := querygen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		return func(p *Planner) (Planned, error) {
			q, err := p.prepareGraph(g)
			if err != nil {
				return Planned{}, err
			}
			return q.plan(SourcePrepared)
		}
	}
	jobs := []job{
		{"q8", sql(tpcr.Query8SQL)},
		{"top-k", sql(testQueries[0] + " limit 10")},
		{"chain-12", gen(querygen.Spec{Relations: 12, Seed: 12})},
		{"clique-8", gen(querygen.Spec{Shape: querygen.Clique, Relations: 8, Seed: 15})},
	}
	const simmenJobs = 2 // the baseline plans the first two as well

	type ref struct {
		cost float64
		tree string
	}
	reference := func(p *Planner, j job) ref {
		pd, err := j.plan(p)
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		if pd.Source == SourceCacheHit {
			t.Fatalf("%s: source %v, want a DP run", j.name, pd.Source)
		}
		return ref{pd.Cost, pd.Best.String()}
	}
	want := map[*Planner][]ref{}
	for _, j := range jobs {
		want[dfsm] = append(want[dfsm], reference(New(cfg(optimizer.ModeDFSM)), j))
	}
	for _, j := range jobs[:simmenJobs] {
		want[simmen] = append(want[simmen], reference(New(cfg(optimizer.ModeSimmen)), j))
	}

	const goroutines, iters = 8, 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				p, n := dfsm, len(jobs)
				if (g+i)%3 == 0 {
					p, n = simmen, simmenJobs
				}
				k := (g + i) % n
				pd, err := jobs[k].plan(p)
				if err != nil {
					t.Errorf("%s: %v", jobs[k].name, err)
					return
				}
				if w := want[p][k]; pd.Cost != w.cost || pd.Best.String() != w.tree {
					t.Errorf("%s (%s): plan diverged on shared scratch: cost %v, want %v",
						jobs[k].name, p.cfg.Optimizer.Mode, pd.Cost, w.cost)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestColdPlanAllocBudget: once the process has planned anything of its
// size, a statement new to the cache — Q8 under a limit never seen
// before, the plan_novel request — allocates what preparation and the
// winner's clone cost, not a DP arena: under 256 KiB, where a
// per-statement scratch pool cost 2 MiB. The median over runs ignores
// the runs a GC cycle (or the race detector's pool sampling) emptied the
// pool under.
func TestColdPlanAllocBudget(t *testing.T) {
	p := newTestPlanner(t, optimizer.ModeDFSM)
	k := 0
	cold := func() uint64 {
		k++
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pd, err := p.PlanContext(context.Background(), fmt.Sprintf("%s limit %d", tpcr.Query8SQL, k))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if pd.Source != SourceCold {
			t.Fatalf("limit %d: source %v, want cold", k, pd.Source)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	cold() // warm-up: grows the shared scratch to Q8's size
	runs := make([]uint64, 15)
	for i := range runs {
		runs[i] = cold()
	}
	slices.Sort(runs)
	median := runs[len(runs)/2]
	t.Logf("a cold Q8 plan allocates %d KiB (median of %d; min %d, max %d)",
		median>>10, len(runs), runs[0]>>10, runs[len(runs)-1]>>10)
	if median >= 256<<10 {
		t.Errorf("a cold Q8 plan allocates %d KiB, want under 256 KiB", median>>10)
	}
}
