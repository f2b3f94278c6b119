package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"

	"orderopt/internal/exec"
	"orderopt/internal/planner"
)

// Wire types shared by the server handlers and the client.

// PlanRequest is the body of POST /plan and POST /explain.
type PlanRequest struct {
	SQL string `json:"sql"`
	// TimeoutMs overrides the server's default deadline for this
	// request (clamped to the server maximum); 0 uses the default.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// PlanNode is one operator of the returned plan tree.
type PlanNode struct {
	Op   string  `json:"op"`
	Cost float64 `json:"cost"`
	Card float64 `json:"card"`
	// Relation and Index name the scanned table occurrence (scans only).
	Relation string `json:"relation,omitempty"`
	Index    string `json:"index,omitempty"`
	// SortOrder is the target ordering of a Sort, e.g. "(n.n_name)".
	SortOrder string `json:"sortOrder,omitempty"`
	// DOP is the planned degree of parallelism of the exchange
	// (ExchangeMerge); 0 on serial operators.
	DOP int `json:"dop,omitempty"`
	// Limit is the row cap of a Limit operator; 0 elsewhere.
	Limit int       `json:"limit,omitempty"`
	Left  *PlanNode `json:"left,omitempty"`
	Right *PlanNode `json:"right,omitempty"`
}

// PlanResponse is the result of /plan.
type PlanResponse struct {
	SQL    string  `json:"sql"`
	Source string  `json:"source"` // cold, prepared or cachehit
	Cost   float64 `json:"cost"`
	// PlanNs is the dynamic-programming time; 0 on cache hits
	// (no DP ran).
	PlanNs   int64     `json:"planNs,omitempty"`
	Residual []string  `json:"residual,omitempty"`
	Plan     *PlanNode `json:"plan"`
}

// ExplainResponse is the result of /explain.
type ExplainResponse struct {
	SQL    string  `json:"sql"`
	Source string  `json:"source"`
	Cost   float64 `json:"cost"`
	// Text is the rendered physical plan tree.
	Text string `json:"text"`
	// OrderBy is the required result ordering, e.g. "(o.o_orderkey)".
	OrderBy string `json:"orderBy,omitempty"`
	// OrderBySatisfied reports the framework's O(1) Contains verdict on
	// the final plan's DFSM state (DFSM mode only; nil otherwise).
	OrderBySatisfied *bool    `json:"orderBySatisfied,omitempty"`
	GroupBy          []string `json:"groupBy,omitempty"`
	// Optimization counters, present when the DP ran (not a cache hit).
	PlansGenerated int64 `json:"plansGenerated,omitempty"`
	PlansRetained  int   `json:"plansRetained,omitempty"`
	PrepNs         int64 `json:"prepNs,omitempty"`
	PlanNs         int64 `json:"planNs,omitempty"`
	// DFSM sizes (DFSM mode only).
	NFSMStates int `json:"nfsmStates,omitempty"`
	DFSMStates int `json:"dfsmStates,omitempty"`
}

// ExecuteRequest is the body of POST /execute.
type ExecuteRequest struct {
	SQL string `json:"sql"`
	// Dataset names the registered dataset to run over; empty selects
	// the server's default (first registered).
	Dataset string `json:"dataset,omitempty"`
	// MaxRows caps the rows returned in the response (the query always
	// executes to completion; RowCount is the full cardinality).
	// 0 means the server default (20); the server caps at 1000.
	MaxRows int `json:"maxRows,omitempty"`
	// TimeoutMs overrides the server's default deadline for this
	// request (clamped to the server maximum); 0 uses the default. An
	// expired deadline cancels the pipeline mid-stream and returns 504
	// with the partial operator counters.
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// MaxDOP caps the degree of parallelism this execution may use,
	// below the server's configured worker count: exchange operators in
	// the plan run with at most this many morsel workers. 0 uses the
	// server's configuration; 1 forces serial execution.
	MaxDOP int `json:"maxDOP,omitempty"`
	// Stream switches the response to chunked NDJSON frames (header,
	// rows..., trailer — see docs/api.md): the full result streams in
	// pipeline order as it is produced, MaxRows is ignored, and errors
	// after the first frame arrive in the trailer. Use
	// Client.ExecuteStream rather than setting this by hand.
	Stream bool `json:"stream,omitempty"`
	// ChunkRows caps the rows per streamed frame (default
	// exec.DefaultStreamChunk, ceiling exec.MaxStreamChunk). Ignored
	// unless Stream is set.
	ChunkRows int `json:"chunkRows,omitempty"`
	// Analyze times every operator, as EXPLAIN ANALYZE does: each
	// operator's TimeNs is its inclusive wall time. Without it no
	// operator is timed and every TimeNs is 0; rows are exact either way.
	Analyze bool `json:"analyze,omitempty"`
}

// ExecuteResponse is the result of /execute: the plan (as /plan reports
// it) plus the execution outcome over the chosen dataset.
type ExecuteResponse struct {
	SQL     string    `json:"sql"`
	Dataset string    `json:"dataset"`
	Source  string    `json:"source"` // cold, prepared or cachehit
	Cost    float64   `json:"cost"`
	Plan    *PlanNode `json:"plan"`
	// Columns names the result columns; grouped queries end with the
	// aggregate select-list items ("count(*)", "sum(l.l_qty)", ... —
	// a lone "count(*)" when the query spelled no aggregates).
	Columns []string `json:"columns"`
	// RowCount is the full result cardinality; Rows the first MaxRows
	// result rows (Truncated says whether RowCount exceeded them).
	RowCount  int64     `json:"rowCount"`
	Rows      [][]int64 `json:"rows"`
	Truncated bool      `json:"truncated,omitempty"`
	// RowsSorted totals the rows Sort operators consumed — the runtime
	// price of ordering this plan did (not avoid).
	RowsSorted int64 `json:"rowsSorted"`
	// PlanNs is the dynamic-programming time (0 on cache hits);
	// ExecNs the pipeline execution wall time.
	PlanNs int64 `json:"planNs,omitempty"`
	ExecNs int64 `json:"execNs"`
	// Operators reports per-operator row/time counters in plan
	// preorder.
	Operators []exec.OpStats `json:"operators"`

	block *planBlock // the plan's members, encoded; set by the server
}

// EndpointStats are one endpoint's served-traffic counters. Requests
// counts requests that reached planning (Errors of them failed there);
// Shed counts 429 admission rejections and Rejected everything turned
// away before planning (malformed request, wrong method, draining).
// Latency aggregates cover Requests only.
type EndpointStats struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	Shed     int64 `json:"shed"`
	Rejected int64 `json:"rejected"`
	// Canceled counts requests whose client disconnected mid-work,
	// TimedOut requests cut by the deadline (504), and BudgetRejected
	// queries that exceeded a per-query or global resource budget
	// (429, "code": "budget"). All three are also included in Errors.
	Canceled       int64 `json:"canceled"`
	TimedOut       int64 `json:"timedOut"`
	BudgetRejected int64 `json:"budgetRejected"`
	// MemShed counts 429s from the memory-admission gate specifically
	// (a query or dataset load would have pushed resident + in-use
	// bytes over the limit); also included in Shed.
	MemShed int64 `json:"memShed,omitempty"`
	// Parallel counts requests answered with a parallel plan (one
	// containing an exchange operator).
	Parallel      int64   `json:"parallel"`
	MeanLatencyUs float64 `json:"meanLatencyUs"`
	MaxLatencyUs  float64 `json:"maxLatencyUs"`
}

// StatsResponse is the result of /stats.
type StatsResponse struct {
	UptimeSec   float64 `json:"uptimeSec"`
	InFlight    int64   `json:"inFlight"`
	MaxInFlight int     `json:"maxInFlight"`
	Draining    bool    `json:"draining"`
	// MemUsedBytes is the process's one memory gauge, the sum
	// MemLimitBytes (0: tracking only) is checked against: resident
	// datasets, row memory allocated by running pipelines and admission
	// reservations.
	MemUsedBytes  int64 `json:"memUsedBytes"`
	MemLimitBytes int64 `json:"memLimitBytes"`
	// Panics counts handler panics answered with 500 ("code": "panic").
	Panics    int64                    `json:"panics"`
	Planner   planner.Stats            `json:"planner"`
	Endpoints map[string]EndpointStats `json:"endpoints"`
	// Registry reports the dataset registry's lifecycle gauges (nil
	// when execution is disabled).
	Registry *RegistryStats `json:"registry,omitempty"`
}

// RegistryStats are the dataset registry's lifecycle gauges: what is
// resident (the part of memUsedBytes the datasets hold), the high-water
// mark and the load/eviction counters. Datasets lists every registered
// dataset, resident or not. The build counters say how hash joins over
// bare base-relation scans got their build table: from the dataset's
// resident one (BuildHits), by building and retaining it (BuildMisses),
// or — it did not fit the memory limit — by building their own per
// query (BuildFallbacks).
type RegistryStats struct {
	ResidentBytes  int64              `json:"residentBytes"`
	HighWaterBytes int64              `json:"highWaterBytes"`
	Loads          int64              `json:"loads"`
	Evictions      int64              `json:"evictions"`
	BuildHits      int64              `json:"buildHits"`
	BuildMisses    int64              `json:"buildMisses"`
	BuildFallbacks int64              `json:"buildFallbacks"`
	Datasets       []exec.DatasetInfo `json:"datasets,omitempty"`
}

// HealthResponse is the result of /healthz: liveness plus the gauges a
// load balancer pre-drains on (draining flag, in-flight vs capacity,
// memory pressure).
type HealthResponse struct {
	Status        string  `json:"status"` // ok or draining
	Draining      bool    `json:"draining"`
	UptimeSec     float64 `json:"uptimeSec"`
	InFlight      int64   `json:"inFlight"`
	MaxInFlight   int     `json:"maxInFlight"`
	MemUsedBytes  int64   `json:"memUsedBytes"`
	MemLimitBytes int64   `json:"memLimitBytes"`
	// RegistryBytes is the dataset registry's resident-set size, the
	// part of MemUsedBytes the datasets hold.
	RegistryBytes int64 `json:"registryBytes"`
	// Parallel-execution gauges: the scheduler's processor count, the
	// configured per-query worker cap, and the morsel workers running
	// across all in-flight pipelines right now.
	GoMaxProcs    int   `json:"goMaxProcs"`
	Workers       int   `json:"workers"`
	ActiveWorkers int64 `json:"activeWorkers"`
}

// ErrorResponse is the body of every non-2xx planning response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code classifies query-lifecycle failures: "timeout" (504, the
	// deadline cut the work), "canceled" (the client went away),
	// "budget" (429, a resource budget was exceeded). Empty for
	// ordinary errors.
	Code string `json:"code,omitempty"`
	// Operators carries the partial per-operator counters of an
	// /execute pipeline that was cut short, so a timed-out client can
	// still see how far it got (and, under Analyze, where the time
	// went).
	Operators []exec.OpStats `json:"operators,omitempty"`
}

// StatusError is a non-2xx response decoded into an error. The server
// sends a 429 (shed, budget) or 503 (draining) with Retry-After; the
// client returns it once, and whether to retry is the caller's call.
type StatusError struct {
	Code int
	// Kind is the body's lifecycle classification ("timeout",
	// "canceled", "budget"), empty for ordinary errors.
	Kind    string
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server: %d %s: %s", e.Code, http.StatusText(e.Code), e.Message)
}

// Client calls a planning server. The zero HTTPClient means
// http.DefaultClient; Client is safe for concurrent use.
type Client struct {
	BaseURL    string
	HTTPClient *http.Client
}

// NewClient returns a Client for the server at base (e.g.
// "http://127.0.0.1:7432").
func NewClient(base string) *Client {
	return &Client{BaseURL: base}
}

// Plan plans sql on the server.
func (c *Client) Plan(sql string) (*PlanResponse, error) {
	return c.PlanContext(context.Background(), sql)
}

// PlanContext plans sql on the server under ctx.
func (c *Client) PlanContext(ctx context.Context, sql string) (*PlanResponse, error) {
	var resp PlanResponse
	if err := c.postJSON(ctx, "/plan", PlanRequest{SQL: sql}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Execute plans req.SQL and runs the plan over the named dataset.
func (c *Client) Execute(req ExecuteRequest) (*ExecuteResponse, error) {
	return c.ExecuteContext(context.Background(), req)
}

// ExecuteContext is Execute under ctx: cancelling ctx aborts the HTTP
// request, which cancels the server-side pipeline within one row
// batch.
func (c *Client) ExecuteContext(ctx context.Context, req ExecuteRequest) (*ExecuteResponse, error) {
	var resp ExecuteResponse
	if err := c.postJSON(ctx, "/execute", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the server's counters.
func (c *Client) Stats() (*StatsResponse, error) {
	var resp StatsResponse
	if err := c.get("/stats", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// post sends reqBody to path as JSON, once.
func (c *Client) post(ctx context.Context, path string, reqBody any) (*http.Response, error) {
	body, err := json.Marshal(reqBody)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.httpClient().Do(req)
}

// postJSON posts reqBody to path and decodes the response; a non-200 is
// a *StatusError.
func (c *Client) postJSON(ctx context.Context, path string, reqBody, out any) error {
	res, err := c.post(ctx, path, reqBody)
	if err != nil {
		return err
	}
	return decode(res, out)
}

func (c *Client) get(path string, out any) error {
	u, err := url.JoinPath(c.BaseURL, path)
	if err != nil {
		return err
	}
	res, err := c.httpClient().Get(u)
	if err != nil {
		return err
	}
	return decode(res, out)
}

func decode(res *http.Response, out any) error {
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		var e ErrorResponse
		if err := json.NewDecoder(res.Body).Decode(&e); err != nil || e.Error == "" {
			e.Error = "(no error body)"
		}
		return &StatusError{Code: res.StatusCode, Kind: e.Code, Message: e.Error}
	}
	return json.NewDecoder(res.Body).Decode(out)
}
