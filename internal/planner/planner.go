// Package planner owns the end-to-end query-planning pipeline —
// SQL → parse → bind → analyze → optimize → plan — behind a reentrant,
// goroutine-safe Planner, the service-shaped layer the one-shot
// optimizer.Optimize entry point lacks. Two levels of amortization
// stack up, mirroring the prepared-statement design of production
// optimizers (the Selinger lineage the paper's §7 test bed imitates):
//
//  1. Prepared statements. The first PlanContext of a statement runs
//     the pipeline's per-query preparation once — parsing, binding
//     against the catalog, the §5.2 interesting-order analysis, and the
//     DFSM compilation — and caches the immutable PreparedQuery by SQL
//     text. It then runs the dynamic programming and stores the best
//     plan on the statement; every later PlanContext returns it without
//     running the DP at all. The plan's order annotations are handles into the
//     statement's own interner and DFSM, so a plan is never shared
//     between statements, not even between two spellings of one query.
//  2. Pooled optimizer scratch. The DP scratch (plan-node arena, DP
//     table, edge buffer) is recycled through one process-wide
//     freelist.List in internal/optimizer, shared by every statement: a
//     statement new to the cache still plans on an arena some earlier
//     statement grew, and runs scale across GOMAXPROCS.
//
// One Planner carries one Config, so every plan it keeps was made under
// the same analyze/optimizer configuration.
package planner

import (
	"cmp"
	"context"
	"fmt"
	"sync/atomic"

	"orderopt/internal/catalog"
	"orderopt/internal/optimizer"
	"orderopt/internal/plan"
	"orderopt/internal/query"
	"orderopt/internal/sqlparse"
)

// DefaultPreparedCacheSize is the prepared-statement cache's default
// capacity (statements).
const DefaultPreparedCacheSize = 256

// Config fixes a Planner's pipeline: the catalog SQL binds against, the
// analysis options, and the plan-generator configuration. All queries
// planned through one Planner share it.
type Config struct {
	// Catalog resolves table names during binding. Required.
	Catalog *catalog.Catalog
	// Analyze tunes the §5.2 interesting-order analysis.
	Analyze query.AnalyzeOptions
	// Optimizer tunes the plan generator (mode, enumerator, operators).
	Optimizer optimizer.Config
	// PreparedCacheSize bounds the SQL-text prepared-statement cache,
	// and with it the plans kept: 0 means DefaultPreparedCacheSize,
	// negative disables it (every plan call runs the full pipeline and
	// the DP).
	PreparedCacheSize int
}

// DefaultConfig plans against cat with the experiments' optimizer
// defaults (DFSM mode, DPccp enumeration, index orders on).
func DefaultConfig(cat *catalog.Catalog) Config {
	return Config{
		Catalog:   cat,
		Analyze:   query.AnalyzeOptions{UseIndexes: true},
		Optimizer: optimizer.DefaultConfig(optimizer.ModeDFSM),
	}
}

// Stats is a snapshot of a Planner's counters.
type Stats struct {
	// Prepares counts full pipeline runs (prepared-cache misses);
	// PreparedHits counts plan calls served from the prepared-statement
	// cache.
	Prepares     int64
	PreparedHits int64
	// PlanCalls counts plan calls, split into PlanCacheHits
	// (served from the statement's stored plan) and PlanRuns (dynamic
	// programming executed).
	PlanCalls     int64
	PlanCacheHits int64
	PlanRuns      int64
	// PreparedEntries is the number of cached statements and
	// PlanCacheEntries the number of those that hold a plan (gauges,
	// not monotone counters) — the serving layer's /stats endpoint
	// reports them next to the hit counters.
	PlanCacheEntries int
	PreparedEntries  int
}

// Planner is the reentrant planning service. All methods are safe for
// concurrent use by multiple goroutines.
type Planner struct {
	cfg Config

	prepared *statements // by SQL text; nil when disabled

	prepares      atomic.Int64
	preparedHits  atomic.Int64
	planCalls     atomic.Int64
	planCacheHits atomic.Int64
	planRuns      atomic.Int64
}

// New returns a Planner for cfg.
func New(cfg Config) *Planner {
	p := &Planner{cfg: cfg}
	if n := cfg.PreparedCacheSize; n >= 0 {
		p.prepared = newStatements(cmp.Or(n, DefaultPreparedCacheSize))
	}
	return p
}

// Stats returns a snapshot of the planner's counters.
func (p *Planner) Stats() Stats {
	s := Stats{
		Prepares:      p.prepares.Load(),
		PreparedHits:  p.preparedHits.Load(),
		PlanCalls:     p.planCalls.Load(),
		PlanCacheHits: p.planCacheHits.Load(),
		PlanRuns:      p.planRuns.Load(),
	}
	if p.prepared != nil {
		s.PreparedEntries, s.PlanCacheEntries = p.prepared.counts()
	}
	return s
}

// Source says where a Planned came from.
type Source uint8

const (
	// SourceCold: this call ran the full pipeline (parse, bind,
	// analyze, DFSM preparation) and the dynamic programming.
	SourceCold Source = iota
	// SourcePrepared: a PreparedQuery that held no plan yet ran the
	// dynamic programming on pooled scratch.
	SourcePrepared
	// SourceCacheHit: the best plan was the one stored on the
	// PreparedQuery.
	SourceCacheHit
)

func (s Source) String() string {
	switch s {
	case SourcePrepared:
		return "prepared"
	case SourceCacheHit:
		return "cachehit"
	default:
		return "cold"
	}
}

// Planned is the outcome of one plan call. Best is immutable and shared
// (every plan call of a statement returns the same nodes); it must not be
// modified.
type Planned struct {
	Best   *plan.Node
	Cost   float64
	Source Source
	// Result carries the optimization counters when the DP ran; nil on
	// cache hits. A run that lost the race to store the statement's
	// plan keeps its Result, but Best is the stored plan, of equal cost.
	Result *optimizer.Result
	// Origin is the prepared query that was planned. Best's order
	// annotations (plan.Node.State, plan.Node.SortOrd) are handles into
	// its interner and DFSM.
	Origin *PreparedQuery
}

// PreparedQuery is an immutable prepared statement: the bound graph, the
// interesting-order analysis, and the prepared optimizer inputs — plus
// its best plan, stored by the first plan call that finishes, and what
// consumers derive from that plan (Planned.Memo). It is safe for
// concurrent plan calls.
type PreparedQuery struct {
	pl       *Planner
	residual []sqlparse.Expr
	analysis *query.Analysis
	prep     *optimizer.Prepared

	best atomic.Pointer[plan.Node] // written once
	memo [memoSlots]atomic.Pointer[any]
}

// Residual lists bound WHERE conjuncts the plan generator treats as
// generic filters (no FDs, no interesting orders).
func (q *PreparedQuery) Residual() []sqlparse.Expr { return q.residual }

// Analysis returns the interesting-order analysis.
func (q *PreparedQuery) Analysis() *query.Analysis { return q.analysis }

// Prepared returns the prepared optimizer inputs (framework statistics,
// preparation time).
func (q *PreparedQuery) Prepared() *optimizer.Prepared { return q.prep }

func (p *Planner) prepare(sql string) (q *PreparedQuery, hit bool, err error) {
	if p.prepared != nil {
		if q, ok := p.prepared.get(sql); ok {
			p.preparedHits.Add(1)
			return q, true, nil
		}
	}
	q, err = p.prepareSQL(sql)
	if err != nil || p.prepared == nil {
		return q, false, err
	}
	if exist, added := p.prepared.add(sql, q); !added {
		// A concurrent preparation won the race; its result is as good.
		// This call both ran the full pipeline (already counted in
		// Prepares) and is served from the cache, so it counts in
		// PreparedHits too — the counters record work done and cache
		// service, not a partition of calls.
		p.preparedHits.Add(1)
		return exist, true, nil
	}
	return q, false, nil
}

func (p *Planner) prepareSQL(sql string) (*PreparedQuery, error) {
	if p.cfg.Catalog == nil {
		return nil, fmt.Errorf("planner: no catalog configured for SQL planning")
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	bq, err := sqlparse.Bind(stmt, p.cfg.Catalog)
	if err != nil {
		return nil, err
	}
	q, err := p.prepareGraph(bq.Graph)
	if err != nil {
		return nil, err
	}
	q.residual = bq.Residual
	return q, nil
}

func (p *Planner) prepareGraph(g *query.Graph) (*PreparedQuery, error) {
	p.prepares.Add(1)
	a, err := query.Analyze(g, p.cfg.Analyze)
	if err != nil {
		return nil, err
	}
	prep, err := optimizer.Prepare(a, p.cfg.Optimizer)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{pl: p, analysis: a, prep: prep}, nil
}

// PlanQueryContext plans sql end to end — prepared-statement cache and
// the statement's stored plan, then dynamic programming on pooled
// scratch — and returns the prepared statement the plan came from as
// well, for callers that need the bound graph, analysis or framework
// next to the result: the serving layer renders relation aliases and
// order properties from it. Planning is
// CPU-bound and runs in well-understood phases (parse/bind/analyze, DFSM
// preparation, dynamic programming), so cancellation is checked at the
// phase boundaries rather than inside the DP's inner loops: a request
// whose deadline expires — or whose client disconnects — before or
// between phases never starts the next one. The returned error is
// ctx.Err() when cancellation was the cause.
func (p *Planner) PlanQueryContext(ctx context.Context, sql string) (Planned, *PreparedQuery, error) {
	if err := ctx.Err(); err != nil {
		return Planned{}, nil, err
	}
	q, hit, err := p.prepare(sql)
	if err != nil {
		return Planned{}, nil, err
	}
	src := SourceCold
	if hit {
		src = SourcePrepared
	}
	if err := ctx.Err(); err != nil {
		return Planned{}, nil, err
	}
	pd, err := q.plan(src)
	return pd, q, err
}

// PlanContext is PlanQueryContext without the prepared statement.
func (p *Planner) PlanContext(ctx context.Context, sql string) (Planned, error) {
	pd, _, err := p.PlanQueryContext(ctx, sql)
	return pd, err
}

// plan plans the prepared query: its stored plan if it has one, else
// the DP.
func (q *PreparedQuery) plan(src Source) (Planned, error) {
	p := q.pl
	p.planCalls.Add(1)
	if best := q.best.Load(); best != nil {
		p.planCacheHits.Add(1)
		return Planned{Best: best, Cost: best.Cost, Source: SourceCacheHit, Origin: q}, nil
	}
	res, err := q.prep.Run()
	if err != nil {
		return Planned{}, err
	}
	p.planRuns.Add(1)
	// The first run to finish stores its plan; a run that lost the race
	// answers with the stored one, so whatever Memo keeps on q belongs to
	// the plan every caller sees.
	best := res.Best
	if !q.best.CompareAndSwap(nil, best) {
		best = q.best.Load()
	}
	return Planned{Best: best, Cost: best.Cost, Source: src, Result: res, Origin: q}, nil
}

// A MemoSlot names one value derived from a statement's plan alone and
// kept on the statement (Planned.Memo).
type MemoSlot uint8

const (
	// MemoShape is the executor's compiled shape of the plan.
	MemoShape MemoSlot = iota
	// MemoBlock is the serving layer's encoded plan block.
	MemoBlock
	memoSlots
)

// Memo returns the value build derives from pd.Best under slot. The
// first value built is kept on pd.Origin, the statement whose stored
// plan pd.Best is, and every later Planned of that statement returns it
// without calling build; concurrent first builders agree on one. When
// pd has no Origin, and when build fails, nothing is kept. What build
// returns must depend on pd.Best and pd.Origin alone, and must not be
// modified afterwards.
func (pd Planned) Memo(slot MemoSlot, build func() (any, error)) (any, error) {
	q := pd.Origin
	if q == nil {
		return build()
	}
	if v := q.memo[slot].Load(); v != nil {
		return *v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	if q.memo[slot].CompareAndSwap(nil, &v) {
		return v, nil
	}
	return *q.memo[slot].Load(), nil
}
