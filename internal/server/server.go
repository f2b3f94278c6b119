// Package server exposes the reentrant planner as an HTTP/JSON planning
// service — the network-facing layer that turns the library into the
// traffic-serving system the ROADMAP asks for. The paper's framework
// earns its O(1) order-property operations in exactly this setting: a
// planning loop answering a sustained stream of queries, where the
// prepared-statement cache, each statement keeping its own plan, converts
// repeated statements into sub-microsecond lookups.
//
// Endpoints:
//
//	POST /plan     {"sql": "select ..."} → plan tree + cost + source
//	               (cold | prepared | cachehit); GET /plan?q=... works too
//	POST /explain  same request → rendered physical plan and the
//	               order properties of the chosen plan
//	POST /execute  {"sql": ..., "dataset": ..., "maxRows": ...} → the
//	               query planned AND executed over a registered dataset:
//	               result rows (truncated to maxRows), row counts,
//	               rows-sorted and per-operator row/time counters.
//	               Requires Config.Datasets.
//	GET  /stats    planner counters, cache occupancy and per-endpoint
//	               latency/throughput/shed counters
//	GET  /healthz  liveness; 503 once draining
//
// docs/api.md is the full request/response reference.
//
// Admission is bounded: at most Config.MaxInFlight planning or execution
// requests run concurrently, and requests beyond the bound are shed
// immediately with 429 (Retry-After: 1) instead of queueing — under
// overload the service must degrade by rejecting, not by growing
// latency for everyone. /stats and /healthz bypass admission so the
// service stays observable while saturated. Drain flips /healthz to 503
// and rejects new work with 503 while in-flight requests finish; pair
// DrainAndWait with http.Server.Shutdown for a graceful SIGTERM (see
// cmd/planserverd).
//
// Admitted work is bounded too — the query-lifecycle guarantees:
//
//   - Cancellation. Every handler threads its request context into
//     planning and execution, so a disconnected client's pipeline is
//     cancelled within one row batch instead of running to completion
//     while holding an admission slot.
//   - Deadlines. Config.DefaultTimeout (overridable per request via
//     timeoutMs, clamped to Config.MaxTimeout) cancels mid-pipeline;
//     the client gets a typed 504 with the partial per-operator
//     counters gathered up to the cut.
//   - Budgets. Config.QueryBudget bounds the row memory one /execute
//     pipeline may allocate and Config.MemLimitBytes what resident
//     datasets and all running pipelines may hold together; exceeding
//     either returns a typed 429 ("code": "budget") instead of growing
//     the process.
//   - Panics. A bug that panics under a handler is that request's 500
//     ("code": "panic"), counted in /stats; what the request held —
//     dataset pin, admission slot, reservation, budget charges — is
//     released on the way out and the next request is served.
//
// /stats reports cancelled/timed-out/budget-rejected counters per
// endpoint, and /healthz the draining flag plus in-flight and memory
// gauges, so load balancers can pre-drain and dashboards can watch
// saturation.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"orderopt/internal/exec"
	"orderopt/internal/plan"
	"orderopt/internal/planner"
	"orderopt/internal/query"
)

// DefaultMaxInFlight bounds concurrent planning requests when
// Config.MaxInFlight is 0.
const DefaultMaxInFlight = 64

// DefaultExecuteMaxRows is the /execute response row cap when the
// request does not set maxRows; ExecuteRowCap the hard ceiling.
const (
	DefaultExecuteMaxRows = 20
	ExecuteRowCap         = 1000
)

// StatusClientClosedRequest is the non-standard (nginx-convention)
// status recorded when the client disconnected before its request
// finished. The client is gone and never sees it; the metrics use it
// to keep client aborts out of the server-fault counters.
const StatusClientClosedRequest = 499

// Config parameterizes a Server.
type Config struct {
	// Planner handles every planning request. Required.
	Planner *planner.Planner
	// MaxInFlight is the admission bound for /plan, /explain and
	// /execute: 0 means DefaultMaxInFlight, negative disables admission
	// control.
	MaxInFlight int
	// Datasets enables /execute: the registry of named in-memory
	// databases requests can run over. The datasets' tables must match
	// the planner's catalog (same names and column order). Nil leaves
	// /execute answering 404-style errors.
	Datasets *exec.Registry
	// DefaultTimeout bounds every planning/execution request that does
	// not carry its own timeoutMs; 0 imposes no server-side deadline.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-supplied timeoutMs. 0 falls back to
	// DefaultMaxTimeout when either a default or a client timeout is in
	// play; negative disables clamping.
	MaxTimeout time.Duration
	// QueryBudget bounds the row memory a single /execute pipeline may
	// allocate: its joins' output chunks and the row-header arrays,
	// build tables and group tables of its materializing operators; 0
	// is unlimited.
	QueryBudget exec.Budget
	// MemLimitBytes bounds the process's one memory gauge: the bytes of
	// the resident datasets (Datasets is handed the server's
	// accountant) plus the row memory all concurrently executing
	// pipelines allocate; 0 tracks without enforcing. A dataset load that does
	// not fit evicts idle datasets first; a pipeline that does not fit
	// fails with a typed budget error (429), not the process with an
	// OOM. With a limit set, /execute admission is by memory, not
	// request count: each request reserves DefaultQueryReserveBytes,
	// which covers its pipeline's first bytes, and is shed up front
	// (429, Retry-After) when that does not fit.
	MemLimitBytes int64
	// ExecHook, when set, wraps every compiled operator — the
	// fault-injection seam used by TestFaultIsolation and the fault
	// harness. Leave nil in production.
	ExecHook exec.IterHook
	// Workers caps the morsel workers any single /execute pipeline may
	// use, regardless of what the planner's exchanges ask for; requests
	// can clamp further with maxDOP but never raise it. 0 defaults to
	// GOMAXPROCS.
	Workers int
}

// DefaultMaxTimeout clamps client-supplied timeouts when
// Config.MaxTimeout is 0.
const DefaultMaxTimeout = 30 * time.Second

// DefaultQueryReserveBytes is the per-query admission reservation when
// a memory limit is set: the headroom a query is assumed to need before
// its pipeline has allocated anything — enough for a modest pipeline's
// first chunks and buffers, small enough not to starve admission under
// a realistic limit. The pipeline adopts it (exec.Pipeline.AdoptLease)
// for its first bytes rather than reserving again.
const DefaultQueryReserveBytes = 64 << 10

// Server is the HTTP planning service. It is an http.Handler; all state
// is safe for concurrent use.
type Server struct {
	pl             *planner.Planner
	datasets       *exec.Registry
	maxInFlight    int
	sem            chan struct{} // nil when admission control is disabled
	mux            *http.ServeMux
	start          time.Time
	draining       atomic.Bool
	inFlight       atomic.Int64
	panics         atomic.Int64   // handler panics answered with 500
	wg             sync.WaitGroup // tracks admitted requests for DrainAndWait
	admitMu        sync.RWMutex   // orders admission (wg.Add) against drain (wg.Wait)
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	budget         exec.Budget
	acct           *exec.Accountant
	execHook       exec.IterHook
	workers        int

	planMetrics    endpointMetrics
	explainMetrics endpointMetrics
	executeMetrics endpointMetrics

	// admitted, when set, runs while an admission slot is held —
	// the shedding tests park requests in it deterministically.
	admitted func()
	// built, when set, runs each time /execute builds a value it keeps
	// on a prepared statement — the hit tests count them.
	built func(planner.MemoSlot)
}

// endpointMetrics aggregates one endpoint's counters. Latency is
// tracked as a running (count, sum, max) over requests that actually
// planned; shed (429) and rejected (bad request shape, draining, wrong
// method) requests are counted separately and contribute no latency —
// folding their ~0ns handling into the mean would drive the reported
// latency toward zero exactly when the service is misbehaving.
type endpointMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64
	shed     atomic.Int64
	rejected atomic.Int64
	canceled atomic.Int64
	timedOut atomic.Int64
	budget   atomic.Int64
	memShed  atomic.Int64
	parallel atomic.Int64
	totalNs  atomic.Int64
	maxNs    atomic.Int64
}

// classify maps a lifecycle error to its HTTP status and machine code,
// bumping the matching counter. Errors outside the lifecycle taxonomy
// return (0, "") and keep whatever status the caller chose. Budget is
// checked first: a budget failure detected after the deadline fired
// is still a budget failure.
func (m *endpointMetrics) classify(err error) (int, string) {
	switch {
	case errors.Is(err, exec.ErrBudgetExceeded):
		m.budget.Add(1)
		return http.StatusTooManyRequests, "budget"
	case errors.Is(err, context.DeadlineExceeded):
		m.timedOut.Add(1)
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		m.canceled.Add(1)
		return StatusClientClosedRequest, "canceled"
	}
	return 0, ""
}

func (m *endpointMetrics) record(d time.Duration, failed bool) {
	m.requests.Add(1)
	if failed {
		m.errors.Add(1)
	}
	ns := d.Nanoseconds()
	m.totalNs.Add(ns)
	for {
		cur := m.maxNs.Load()
		if ns <= cur || m.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

func (m *endpointMetrics) snapshot() EndpointStats {
	s := EndpointStats{
		Requests:       m.requests.Load(),
		Errors:         m.errors.Load(),
		Shed:           m.shed.Load(),
		Rejected:       m.rejected.Load(),
		Canceled:       m.canceled.Load(),
		TimedOut:       m.timedOut.Load(),
		BudgetRejected: m.budget.Load(),
		MemShed:        m.memShed.Load(),
		Parallel:       m.parallel.Load(),
	}
	if s.Requests > 0 {
		s.MeanLatencyUs = float64(m.totalNs.Load()) / float64(s.Requests) / 1e3
	}
	s.MaxLatencyUs = float64(m.maxNs.Load()) / 1e3
	return s
}

// New returns a Server over cfg.Planner.
func New(cfg Config) *Server {
	if cfg.Planner == nil {
		panic("server: Config.Planner is required")
	}
	max := cfg.MaxInFlight
	if max == 0 {
		max = DefaultMaxInFlight
	}
	maxT := cfg.MaxTimeout
	if maxT == 0 {
		maxT = DefaultMaxTimeout
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	acct := exec.NewAccountant(cfg.MemLimitBytes)
	if cfg.Datasets != nil {
		cfg.Datasets.SetAccountant(acct)
	}
	s := &Server{
		pl:             cfg.Planner,
		datasets:       cfg.Datasets,
		maxInFlight:    max,
		start:          time.Now(),
		mux:            http.NewServeMux(),
		defaultTimeout: cfg.DefaultTimeout,
		maxTimeout:     maxT,
		budget:         cfg.QueryBudget,
		acct:           acct,
		execHook:       cfg.ExecHook,
		workers:        workers,
	}
	if max > 0 {
		s.sem = make(chan struct{}, max)
	}
	s.mux.HandleFunc("/plan", func(w http.ResponseWriter, r *http.Request) {
		s.servePlanning(w, r, &s.planMetrics, s.planResponse)
	})
	s.mux.HandleFunc("/explain", func(w http.ResponseWriter, r *http.Request) {
		s.servePlanning(w, r, &s.explainMetrics, s.explainResponse)
	})
	s.mux.HandleFunc("POST /execute", s.handleExecute)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler. A panic anywhere under a handler
// is a bug, but one request's bug must not take the connection's
// goroutine down unanswered: it is counted and answered 500
// ("code": "panic"). The handlers' own deferred releases — dataset pin,
// admission slot, memory reservation, the pipeline's budget — have run
// by the time the panic reaches this frame. http.ErrAbortHandler keeps
// its net/http meaning and is re-raised.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if v == http.ErrAbortHandler {
			panic(v)
		}
		s.panics.Add(1)
		// If the handler had already started its response this write is
		// a no-op on the status line; the client sees a cut-short body.
		writeErrorCoded(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v), "panic", nil)
	}()
	s.mux.ServeHTTP(w, r)
}

// Drain puts the server into draining mode: /healthz turns 503 so load
// balancers stop routing here, and new planning requests are rejected
// with 503 while in-flight ones finish. Draining is irreversible.
func (s *Server) Drain() {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	s.draining.Store(true)
}

// DrainAndWait drains and then blocks until every admitted request —
// including running /execute pipelines, which http.Server.Shutdown
// alone does not wait for once their connections are hijacked or
// mid-write — has released its slot, or ctx expires. In-flight
// pipelines are themselves bounded by the server's deadline, so the
// wait is too. Returns ctx.Err() when the wait was cut short.
func (s *Server) DrainAndWait(ctx context.Context) error {
	s.Drain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Planner returns the planner the server serves.
func (s *Server) Planner() *planner.Planner { return s.pl }

// servePlanning is the shared request path of /plan and /explain:
// extract the SQL, check draining, admit (or shed), run under the
// request's deadline, record and classify the outcome.
func (s *Server) servePlanning(w http.ResponseWriter, r *http.Request,
	m *endpointMetrics, respond func(ctx context.Context, sql string) (any, int, error)) {

	sql, timeoutMs, ok := requestSQL(w, r, m)
	if !ok {
		return
	}
	release, ok := s.admit(w, m)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestContext(r, timeoutMs)
	defer cancel()

	begin := time.Now()
	resp, code, err := respond(ctx, sql)
	if err != nil {
		m.record(time.Since(begin), true)
		lcCode, kind := m.classify(err)
		if lcCode != 0 {
			code = lcCode
		}
		writeErrorCoded(w, code, err.Error(), kind, nil)
		return
	}
	m.record(time.Since(begin), false)
	writeJSON(w, http.StatusOK, resp)
}

// admit runs the shared admission path — draining rejection, bounded
// concurrency with 429 shedding, in-flight accounting. On success the
// returned release must be deferred.
func (s *Server) admit(w http.ResponseWriter, m *endpointMetrics) (release func(), ok bool) {
	// The read lock pairs with DrainAndWait's write lock: a request
	// either sees draining and is rejected, or joins the wait group
	// strictly before the drain starts waiting on it.
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		m.rejected.Add(1)
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return nil, false
	}
	acquired := false
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
			acquired = true
		default:
			m.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("serving capacity exhausted (%d in flight)", s.maxInFlight))
			return nil, false
		}
	}
	s.inFlight.Add(1)
	s.wg.Add(1)
	if s.admitted != nil {
		s.admitted()
	}
	return func() {
		s.inFlight.Add(-1)
		if acquired {
			<-s.sem
		}
		s.wg.Done()
	}, true
}

// requestContext derives the execution context for one request:
// the request's own context (cancelled on client disconnect) bounded
// by the effective deadline — the client's timeoutMs if given, else
// the server default, clamped to the server maximum. The returned
// cancel must always be called.
func (s *Server) requestContext(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	d := s.defaultTimeout
	if timeoutMs > 0 {
		// Saturate in milliseconds first: a product past MaxInt64
		// nanoseconds wraps, to a negative deadline (none) or a tiny one.
		d = time.Duration(min(int64(timeoutMs), math.MaxInt64/int64(time.Millisecond))) * time.Millisecond
	}
	if s.maxTimeout > 0 && d > s.maxTimeout {
		d = s.maxTimeout
	}
	if d <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), d)
}

// requestSQL extracts the statement (and optional timeoutMs) from a
// GET ?q=...&timeoutMs=... or a POST JSON body.
func requestSQL(w http.ResponseWriter, r *http.Request, m *endpointMetrics) (string, int, bool) {
	fail := func(code int, msg string) (string, int, bool) {
		m.rejected.Add(1)
		writeError(w, code, msg)
		return "", 0, false
	}
	var sql string
	var timeoutMs int
	switch r.Method {
	case http.MethodGet:
		sql = r.URL.Query().Get("q")
		if v := r.URL.Query().Get("timeoutMs"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return fail(http.StatusBadRequest, "invalid timeoutMs: "+v)
			}
			timeoutMs = n
		}
	case http.MethodPost:
		var req PlanRequest
		if code, err := decodeBody(w, r, &req); err != nil {
			return fail(code, err.Error())
		}
		sql, timeoutMs = req.SQL, req.TimeoutMs
		if timeoutMs < 0 {
			return fail(http.StatusBadRequest, fmt.Sprintf("invalid timeoutMs: %d", timeoutMs))
		}
	default:
		return fail(http.StatusMethodNotAllowed, "use GET ?q=... or POST {\"sql\": ...}")
	}
	if strings.TrimSpace(sql) == "" {
		return fail(http.StatusBadRequest, "empty sql")
	}
	return sql, timeoutMs, true
}

// hasExchange reports whether the plan contains a parallel exchange
// operator — the /stats parallel-query counters key off it.
func hasExchange(n *plan.Node) bool {
	if n == nil {
		return false
	}
	if n.Op == plan.ExchangeMerge {
		return true
	}
	return hasExchange(n.Left) || hasExchange(n.Right)
}

func (s *Server) planResponse(ctx context.Context, sql string) (any, int, error) {
	pd, q, err := s.pl.PlanQueryContext(ctx, sql)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if hasExchange(pd.Best) {
		s.planMetrics.parallel.Add(1)
	}
	resp := &PlanResponse{
		SQL:      sql,
		Source:   pd.Source.String(),
		Strategy: q.Prepared().Strategy().String(),
		Cost:     pd.Cost,
		Plan:     planJSON(pd.Best, q),
	}
	if pd.Result != nil {
		resp.PlanNs = pd.Result.PlanTime.Nanoseconds()
	}
	for _, e := range q.Residual() {
		resp.Residual = append(resp.Residual, fmt.Sprint(e))
	}
	return resp, 0, nil
}

func (s *Server) explainResponse(ctx context.Context, sql string) (any, int, error) {
	pd, err := s.pl.PlanContext(ctx, sql)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if hasExchange(pd.Best) {
		s.explainMetrics.parallel.Add(1)
	}
	org := pd.Origin
	a := org.Analysis()
	g := org.Prepared().Graph()
	reg, in := a.Builder.Registry(), a.Builder.Interner()
	resp := &ExplainResponse{
		SQL:      sql,
		Source:   pd.Source.String(),
		Strategy: org.Prepared().Strategy().String(),
		Cost:     pd.Cost,
		Text:     pd.Best.String(),
	}
	if a.OrderByOrd != 0 {
		resp.OrderBy = in.Format(reg, a.OrderByOrd)
	}
	for _, c := range g.GroupBy {
		resp.GroupBy = append(resp.GroupBy, g.ColumnName(c))
	}
	// Order properties are O(1) DFSM lookups on the root's state; the
	// Simmen baseline's annotations live in per-run scratch, so the
	// flags are reported in DFSM mode only.
	if fw := org.Prepared().Framework(); fw != nil {
		if a.OrderByOrd != 0 {
			v := fw.Contains(pd.Best.State, a.OrderByOrd)
			resp.OrderBySatisfied = &v
		}
		st := org.Prepared().Stats()
		resp.NFSMStates = st.NFSMStates
		resp.DFSMStates = st.DFSMStates
	}
	if r := pd.Result; r != nil {
		resp.PlansGenerated = r.PlansGenerated
		resp.PlansRetained = r.PlansRetained
		resp.PrepNs = r.PrepTime.Nanoseconds()
		resp.PlanNs = r.PlanTime.Nanoseconds()
	}
	return resp, 0, nil
}

// handleExecute plans the statement and runs the chosen plan over a
// registered dataset — buffered by default (result rows truncated to
// maxRows), streamed as NDJSON frames when the request sets stream. It
// shares the planning endpoints' admission control, then passes the
// memory-admission gate, then pins the dataset (loading it on first
// use) for the duration of the request so eviction cannot race the
// pipeline.
func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	m := &s.executeMetrics
	reject := func(code int, msg string) {
		m.rejected.Add(1)
		writeError(w, code, msg)
	}
	var req ExecuteRequest
	if code, err := decodeBody(w, r, &req); err != nil {
		reject(code, err.Error())
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		reject(http.StatusBadRequest, "empty sql")
		return
	}
	if req.TimeoutMs < 0 {
		reject(http.StatusBadRequest, fmt.Sprintf("invalid timeoutMs: %d", req.TimeoutMs))
		return
	}
	if s.datasets == nil {
		reject(http.StatusNotFound, "no datasets registered (execution disabled)")
		return
	}
	release, ok := s.admit(w, m)
	if !ok {
		return
	}
	defer release()
	var grant memGrant
	if !s.admitMemory(w, m, &grant) {
		return
	}
	defer grant.release()
	acquired := time.Now()
	ds, unpin, err := s.datasets.Acquire(req.Dataset)
	if err != nil {
		switch {
		case errors.Is(err, exec.ErrBudgetExceeded):
			// The dataset load does not fit next to what is resident and
			// pinned: shed, like any other memory-admission failure.
			m.shed.Add(1)
			m.memShed.Add(1)
			writeErrorCoded(w, http.StatusTooManyRequests, err.Error(), "budget", nil)
		case errors.Is(err, exec.ErrUnknownDataset):
			reject(http.StatusBadRequest,
				fmt.Sprintf("unknown dataset %q (have %s)", req.Dataset, strings.Join(s.datasets.Names(), ", ")))
		default:
			// The loader failed: the server's fault, not the request's.
			m.record(time.Since(acquired), true)
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("loading dataset %q: %v", req.Dataset, err))
		}
		return
	}
	defer unpin()
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	if req.Stream {
		s.executeStream(ctx, w, req, ds, &grant)
		return
	}

	begin := time.Now()
	resp, ops, code, err := s.executeResponse(ctx, req, ds, &grant)
	if err != nil {
		m.record(time.Since(begin), true)
		lcCode, kind := m.classify(err)
		if lcCode != 0 {
			code = lcCode
		}
		// Lifecycle failures (timeout, cancel, budget) return the
		// partial per-operator counters gathered up to the cut, so a
		// timed-out client still learns how far each operator got (and,
		// under analyze, where the time went).
		writeErrorCoded(w, code, err.Error(), kind, ops)
		return
	}
	m.record(time.Since(begin), false)
	writeJSON(w, http.StatusOK, resp)
}

// admitMemory is the memory-admission gate of /execute: with a memory
// limit configured, a request is shed (429, Retry-After, "budget")
// when DefaultQueryReserveBytes does not fit the accountant next to
// the resident datasets and running pipelines it already carries. The
// reservation, recorded in g, stays charged until the request's
// pipeline adopts it or g is released, so
// concurrent admissions see each other. Without a limit the gate is a
// no-op — the request-count semaphore remains the only admission
// bound.
func (s *Server) admitMemory(w http.ResponseWriter, m *endpointMetrics, g *memGrant) bool {
	if s.acct.Limit() <= 0 {
		return true
	}
	if !s.acct.Reserve(DefaultQueryReserveBytes) {
		m.shed.Add(1)
		m.memShed.Add(1)
		writeErrorCoded(w, http.StatusTooManyRequests,
			fmt.Sprintf("memory admission: %d of %d bytes in use, resident datasets included (%d reserve needed)",
				s.acct.Used(), s.acct.Limit(), DefaultQueryReserveBytes),
			"budget", nil)
		return false
	}
	*g = memGrant{acct: s.acct, n: DefaultQueryReserveBytes}
	return true
}

// memGrant is one request's admission reservation on the accountant.
// It is released exactly once: handed to the request's pipeline just
// before the pipeline runs (the pipeline releases it
// when it ends), or by release on every path that never gets that far
// — a compile failure, an unknown dataset, a header that fails to
// encode.
type memGrant struct {
	acct *exec.Accountant
	n    int64
}

// handOver makes the reservation cover p's first bytes; p must run next.
func (g *memGrant) handOver(p *exec.Pipeline) {
	p.AdoptLease(g.n)
	g.n = 0
}

// release returns a reservation no pipeline adopted.
func (g *memGrant) release() {
	g.acct.Release(g.n)
	g.n = 0
}

// registryBytes reports the dataset registry's resident bytes (0
// without a registry).
func (s *Server) registryBytes() int64 {
	if s.datasets == nil {
		return 0
	}
	return s.datasets.ResidentBytes()
}

// compiled is one planned-and-compiled /execute request, shared by the
// buffered and streaming response paths.
type compiled struct {
	pd    planner.Planned
	pipe  *exec.Pipeline
	block *planBlock
}

// compileRequest plans req.SQL and compiles the chosen plan into a
// pipeline over ds, applying the server's budgets, hook and worker cap
// plus the request's maxDOP. Operators are timed only under the
// request's analyze: a served pipeline otherwise compiles no stats
// wrapper. What the plan alone decides — the pipeline's shape and the
// response's plan block — is built on the statement's first /execute
// and kept on the statement with its plan (planner.Planned.Memo); every
// later hit compiles from the shape and copies the block.
func (s *Server) compileRequest(ctx context.Context, req ExecuteRequest, ds *exec.Dataset) (*compiled, int, error) {
	pd, err := s.pl.PlanContext(ctx, req.SQL)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	org := pd.Origin
	runner := ds.Runner(org.Analysis())
	runner.Budget = s.budget
	runner.Accountant = s.acct
	runner.Hook = s.execHook
	runner.DisableTiming = !req.Analyze
	runner.MaxDOP = s.workers
	if req.MaxDOP > 0 && req.MaxDOP < runner.MaxDOP {
		runner.MaxDOP = req.MaxDOP
	}
	if hasExchange(pd.Best) {
		s.executeMetrics.parallel.Add(1)
	}
	shape, err := pd.Memo(planner.MemoShape, func() (any, error) {
		s.noteBuilt(planner.MemoShape)
		return runner.Shape(pd.Best)
	})
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	pipe, err := runner.CompileShape(shape.(*exec.Shape))
	if err != nil {
		// The plan is valid but the dataset cannot serve it (e.g. a
		// table without data): the client picked the wrong dataset.
		return nil, http.StatusBadRequest, err
	}
	block, _ := pd.Memo(planner.MemoBlock, func() (any, error) {
		s.noteBuilt(planner.MemoBlock)
		return newPlanBlock(org.Prepared().Strategy().String(), pd.Cost, planJSON(pd.Best, org),
			columnNames(org, pipe.Schema), pipe.Ops), nil
	})
	return &compiled{pd: pd, pipe: pipe, block: block.(*planBlock)}, 0, nil
}

func (s *Server) noteBuilt(slot planner.MemoSlot) {
	if s.built != nil {
		s.built(slot)
	}
}

// columnNames resolves a pipeline's output schema to wire column names
// through the prepared query that produced its plan.
func columnNames(org *planner.PreparedQuery, schema []query.ColumnRef) []string {
	g := org.Prepared().Graph()
	out := make([]string, 0, len(schema))
	for _, cr := range schema {
		switch {
		case cr.Rel >= 0:
			out = append(out, g.ColumnName(cr))
		case cr.Col >= 0 && cr.Col < len(g.Aggregates):
			// Rel -1 marks aggregate output columns, numbered by
			// select-list position.
			out = append(out, g.AggregateName(g.Aggregates[cr.Col]))
		default:
			out = append(out, "count(*)")
		}
	}
	return out
}

// opsSnapshot copies the pipeline's per-operator counters.
func (c *compiled) opsSnapshot() []exec.OpStats {
	ops := make([]exec.OpStats, len(c.pipe.Ops))
	for i, op := range c.pipe.Ops {
		ops[i] = *op
	}
	return ops
}

func (s *Server) executeResponse(ctx context.Context, req ExecuteRequest, ds *exec.Dataset, g *memGrant) (*ExecuteResponse, []exec.OpStats, int, error) {
	c, code, err := s.compileRequest(ctx, req, ds)
	if err != nil {
		return nil, nil, code, err
	}
	maxRows := min(req.MaxRows, ExecuteRowCap)
	if maxRows <= 0 {
		maxRows = DefaultExecuteMaxRows
	}
	b := c.block
	resp := &ExecuteResponse{
		SQL:      req.SQL,
		Dataset:  ds.Name,
		Source:   c.pd.Source.String(),
		Strategy: b.strategy,
		Cost:     b.cost,
		Plan:     b.plan,
		Columns:  b.columns,
		Rows:     [][]int64{},
		block:    b,
	}
	if c.pd.Result != nil {
		resp.PlanNs = c.pd.Result.PlanTime.Nanoseconds()
	}
	pipe := c.pipe
	execBegin := time.Now()
	g.handOver(pipe)
	// With maxRows as the chunk, the first chunk is every row returned:
	// the sink copies it into one slab and only counts the rest.
	err = pipe.StreamContext(ctx, maxRows, func(chunk []exec.Row) error {
		if resp.RowCount == 0 {
			slab := slices.Concat(chunk...)
			resp.Rows = make([][]int64, len(chunk))
			for i, r := range chunk {
				resp.Rows[i], slab = slab[:len(r):len(r)], slab[len(r):]
			}
		}
		resp.RowCount += int64(len(chunk))
		return nil
	})
	if err != nil {
		// Partial counters for the error path; the classifier decides
		// whether this was a lifecycle cut (timeout/cancel/budget) or a
		// guard-rail failure (unsorted merge or sorted-group input —
		// the planner emitted an unsound plan, a server bug).
		return nil, c.opsSnapshot(), http.StatusInternalServerError, fmt.Errorf("executing plan: %w", err)
	}
	resp.ExecNs = time.Since(execBegin).Nanoseconds()
	resp.Truncated = resp.RowCount > int64(maxRows)
	resp.RowsSorted = pipe.RowsSorted()
	resp.Operators = c.opsSnapshot()
	return resp, nil, 0, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := &StatsResponse{
		UptimeSec:     time.Since(s.start).Seconds(),
		InFlight:      s.inFlight.Load(),
		MaxInFlight:   s.maxInFlight,
		Draining:      s.draining.Load(),
		MemUsedBytes:  s.acct.Used(),
		MemLimitBytes: s.acct.Limit(),
		Panics:        s.panics.Load(),
		Planner:       s.pl.Stats(),
		Endpoints: map[string]EndpointStats{
			"plan":    s.planMetrics.snapshot(),
			"explain": s.explainMetrics.snapshot(),
			"execute": s.executeMetrics.snapshot(),
		},
	}
	if s.datasets != nil {
		resp.Registry = &RegistryStats{
			ResidentBytes:  s.datasets.ResidentBytes(),
			HighWaterBytes: s.datasets.HighWaterBytes(),
			Loads:          s.datasets.Loads(),
			Evictions:      s.datasets.Evictions(),
			Datasets:       s.datasets.Info(),
		}
		resp.Registry.BuildHits, resp.Registry.BuildMisses, resp.Registry.BuildFallbacks = s.datasets.BuildCounts()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := &HealthResponse{
		Status:        "ok",
		UptimeSec:     time.Since(s.start).Seconds(),
		InFlight:      s.inFlight.Load(),
		MaxInFlight:   s.maxInFlight,
		MemUsedBytes:  s.acct.Used(),
		MemLimitBytes: s.acct.Limit(),
		RegistryBytes: s.registryBytes(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Workers:       s.workers,
		ActiveWorkers: exec.ActiveWorkers(),
	}
	code := http.StatusOK
	if s.draining.Load() {
		resp.Status = "draining"
		resp.Draining = true
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// planJSON converts a physical plan into its wire tree, resolving
// relation and index names and sort orderings through the prepared
// query that was planned.
func planJSON(n *plan.Node, q *planner.PreparedQuery) *PlanNode {
	if n == nil {
		return nil
	}
	g := q.Prepared().Graph()
	a := q.Analysis()
	reg, in := a.Builder.Registry(), a.Builder.Interner()
	var conv func(n *plan.Node) *PlanNode
	conv = func(n *plan.Node) *PlanNode {
		if n == nil {
			return nil
		}
		out := &PlanNode{
			Op:   n.Op.String(),
			Cost: n.Cost,
			Card: n.Card,
		}
		switch n.Op {
		case plan.TableScan, plan.IndexScan:
			rel := &g.Relations[n.Rel]
			out.Relation = rel.Alias
			if n.Op == plan.IndexScan {
				out.Index = rel.Table.Indexes[n.Index].Name
			}
		case plan.Sort:
			out.SortOrder = in.Format(reg, n.SortOrd)
		case plan.ExchangeMerge:
			out.DOP = n.DOP
		case plan.Limit:
			out.Limit = n.Limit
		}
		out.Left = conv(n.Left)
		out.Right = conv(n.Right)
		return out
	}
	return conv(n)
}

// writeJSON encodes v and only then commits the status: a body that
// cannot be encoded (a non-finite cost is the one reachable case) is a
// 500, not a truncated 200, and every body leaves with a Content-Length
// in one Write. The served bodies go through the append writer
// (encode.go); the cold ones stay on encoding/json.
func writeJSON(w http.ResponseWriter, code int, v any) {
	bp := bufPool.Get()
	defer bufPool.Put(bp)
	var err error
	switch v := v.(type) {
	case *ExecuteResponse:
		*bp, err = AppendExecuteResponse((*bp)[:0], v)
	case *PlanResponse:
		*bp, err = AppendPlanResponse((*bp)[:0], v)
	default:
		var b []byte
		if b, err = json.MarshalIndent(v, "", "  "); err == nil {
			*bp = append(append((*bp)[:0], b...), '\n') // copied, so the pool keeps its grown buffer
		}
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(*bp)))
	w.WriteHeader(code)
	_, _ = w.Write(*bp) // the client is gone if this fails; nothing to do
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, &ErrorResponse{Error: msg})
}

// writeErrorCoded writes an error body carrying the lifecycle code
// ("timeout", "canceled", "budget" — empty for ordinary failures) and,
// for cut-short executions, the partial per-operator counters. Budget
// rejections advertise a retry hint like admission shedding does: the
// query may succeed once concurrent load releases its reservations.
func writeErrorCoded(w http.ResponseWriter, code int, msg, kind string, ops []exec.OpStats) {
	if kind == "budget" {
		w.Header().Set("Retry-After", "1")
	}
	if kind == "" {
		ops = nil
	}
	writeJSON(w, code, &ErrorResponse{Error: msg, Code: kind, Operators: ops})
}
