package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"orderopt/internal/exec"
	"orderopt/internal/planner"
	"orderopt/internal/tpcr"
)

const (
	nationRegionSQL = "select * from nation, region where n_regionkey = r_regionkey order by n_name"
	ordersSQL       = "select * from orders, customer where o_custkey = c_custkey order by o_orderdate"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *Client, func()) {
	t.Helper()
	if cfg.Planner == nil {
		cfg.Planner = planner.New(planner.DefaultConfig(tpcr.Schema()))
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	return s, NewClient(ts.URL), ts.Close
}

// explain GETs /explain?q=sql; a non-200 is a *StatusError.
func explain(c *Client, sql string) (*ExplainResponse, error) {
	res, err := c.httpClient().Get(c.BaseURL + "/explain?q=" + url.QueryEscape(sql))
	if err != nil {
		return nil, err
	}
	var resp ExplainResponse
	return &resp, decode(res, &resp)
}

// health GETs /healthz, decoding "ok" (200) and "draining" (503) alike.
func health(t *testing.T, c *Client) *HealthResponse {
	t.Helper()
	res, err := c.httpClient().Get(c.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
		t.Fatalf("decoding /healthz: %v", err)
	}
	return &h
}

func TestPlanEndpoint(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()

	cold, err := c.Plan(tpcr.Query8SQL)
	if err != nil {
		t.Fatalf("cold plan: %v", err)
	}
	if cold.Source != "cold" {
		t.Errorf("first plan source = %q, want cold", cold.Source)
	}
	if cold.Plan == nil || cold.Cost <= 0 {
		t.Fatalf("cold plan missing tree or cost: %+v", cold)
	}
	if cold.PlanNs <= 0 {
		t.Errorf("cold plan reports no DP time")
	}

	warm, err := c.Plan(tpcr.Query8SQL)
	if err != nil {
		t.Fatalf("warm plan: %v", err)
	}
	if warm.Source != "cachehit" {
		t.Errorf("second plan source = %q, want cachehit", warm.Source)
	}
	if warm.Cost != cold.Cost {
		t.Errorf("warm cost %v != cold cost %v", warm.Cost, cold.Cost)
	}

	// The tree must resolve scans to catalog names.
	var sawScan bool
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		if n == nil {
			return
		}
		if n.Op == "TableScan" || n.Op == "IndexScan" {
			sawScan = true
			if n.Relation == "" {
				t.Errorf("scan node without relation name: %+v", n)
			}
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(cold.Plan)
	if !sawScan {
		t.Error("plan tree contains no scan nodes")
	}
}

func TestPlanGet(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	res, err := c.httpClient().Get(c.BaseURL + "/plan?q=" +
		"select+*+from+nation,+region+where+n_regionkey+=+r_regionkey")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET /plan?q= status %d", res.StatusCode)
	}
}

func TestPlanErrors(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()

	for _, bad := range []string{"", "select * from no_such_table", "not sql at all"} {
		_, err := c.Plan(bad)
		var se *StatusError
		if err == nil {
			t.Fatalf("plan %q: no error", bad)
		}
		if !asStatus(err, &se) || se.Code != http.StatusBadRequest {
			t.Errorf("plan %q: got %v, want 400", bad, err)
		}
	}

	req, _ := http.NewRequest(http.MethodPut, c.BaseURL+"/plan", nil)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /plan status %d, want 405", res.StatusCode)
	}
}

// TestNonMonotoneExtractRejected: ordering or grouping by a month or a
// day extracted from a date is a 400 on every planning endpoint, naming
// the expression, not a plan that orders by the date.
func TestNonMonotoneExtractRejected(t *testing.T) {
	_, c, done := newExecServer(t)
	defer done()

	sql := "select * from orders order by extract(month from o_orderdate)"
	_, planErr := c.Plan(sql)
	_, explainErr := explain(c, sql)
	_, execErr := c.Execute(ExecuteRequest{SQL: sql})
	for endpoint, err := range map[string]error{"/plan": planErr, "/explain": explainErr, "/execute": execErr} {
		var se *StatusError
		if !asStatus(err, &se) || se.Code != http.StatusBadRequest || !strings.Contains(se.Message, "EXTRACT(MONTH FROM o_orderdate)") {
			t.Errorf("%s: got %v, want a 400 naming EXTRACT(MONTH FROM o_orderdate)", endpoint, err)
		}
	}
}

func asStatus(err error, se **StatusError) bool {
	s, ok := err.(*StatusError)
	if ok {
		*se = s
	}
	return ok
}

func TestExplainEndpoint(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()

	resp, err := explain(c, nationRegionSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Text, "Scan") {
		t.Errorf("explain text has no scans:\n%s", resp.Text)
	}
	if resp.OrderBy == "" || !strings.Contains(resp.OrderBy, "n_name") {
		t.Errorf("orderBy = %q, want the n_name requirement", resp.OrderBy)
	}
	if resp.OrderBySatisfied == nil || !*resp.OrderBySatisfied {
		t.Errorf("final plan does not satisfy ORDER BY: %+v", resp.OrderBySatisfied)
	}
	if resp.PlansGenerated <= 0 || resp.DFSMStates <= 0 {
		t.Errorf("missing optimization counters: %+v", resp)
	}
}

// TestConcurrentPlans hammers one server from many goroutines over a
// mixed workload and checks every response against the serial cold
// reference — the acceptance gate for the serving layer under -race.
func TestConcurrentPlans(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()

	queries := []string{tpcr.Query8SQL, nationRegionSQL, ordersSQL}
	want := map[string]float64{}
	ref := planner.New(planner.DefaultConfig(tpcr.Schema()))
	for _, q := range queries {
		pd, err := ref.PlanContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = pd.Cost
	}

	const goroutines = 12
	const perG = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				q := queries[(g+i)%len(queries)]
				resp, err := c.Plan(q)
				if err != nil {
					errs <- err
					return
				}
				if resp.Cost != want[q] {
					t.Errorf("goroutine %d: cost %v != reference %v", g, resp.Cost, want[q])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Planner.PlanCacheHits == 0 {
		t.Error("no stored-plan hits across the concurrent run")
	}
	ep := stats.Endpoints["plan"]
	if ep.Requests != goroutines*perG {
		t.Errorf("plan endpoint served %d requests, want %d", ep.Requests, goroutines*perG)
	}
	if ep.Errors != 0 || ep.Shed != 0 {
		t.Errorf("unexpected errors/shed: %+v", ep)
	}
	if stats.Planner.PlanCacheEntries == 0 {
		t.Error("stats report no planned statement after serving")
	}
}

// TestCacheHitAcrossSpellings plans two spellings of one query (the
// WHERE conjuncts swapped). A plan's order annotations are handles into
// its own statement's interner, so each spelling plans cold once and
// then hits its own stored plan; both render the same Sort labels and
// the satisfied ORDER BY verdict. (While plans were shared by a
// canonical fingerprint, a respelled hit decoded through the wrong
// statement rendered wrong Sort labels and a wrong verdict.)
func TestCacheHitAcrossSpellings(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()

	spellA := "select * from customer, nation, region " +
		"where n_regionkey = r_regionkey and c_nationkey = n_nationkey order by n_name"
	spellB := "select * from customer, nation, region " +
		"where c_nationkey = n_nationkey and n_regionkey = r_regionkey order by n_name"

	var sorts func(n *PlanNode) []string
	sorts = func(n *PlanNode) []string {
		if n == nil {
			return nil
		}
		var out []string
		if n.Op == "Sort" {
			out = append(out, n.SortOrder)
		}
		out = append(out, sorts(n.Left)...)
		return append(out, sorts(n.Right)...)
	}
	var want []string
	for _, sql := range []string{spellA, spellB} {
		for i, source := range []string{"cold", "cachehit"} {
			r, err := c.Plan(sql)
			if err != nil {
				t.Fatal(err)
			}
			if r.Source != source {
				t.Errorf("%s, plan %d: source %q, want %q", sql, i, r.Source, source)
			}
			got := sorts(r.Plan)
			if want == nil {
				want = got
			}
			if len(got) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s, plan %d: sort orders %v, want %v", sql, i, got, want)
			}
		}
		e, err := explain(c, sql)
		if err != nil {
			t.Fatal(err)
		}
		if e.Source != "cachehit" {
			t.Errorf("%s: explain source %q, want cachehit", sql, e.Source)
		}
		if !strings.Contains(e.OrderBy, "n_name") {
			t.Errorf("%s: explain orderBy %q, want the n_name requirement", sql, e.OrderBy)
		}
		if e.OrderBySatisfied == nil || !*e.OrderBySatisfied {
			t.Errorf("%s: explain verdict %v, want satisfied", sql, e.OrderBySatisfied)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if p := st.Planner; p.PlanRuns != 2 || p.PlanCacheHits != 4 || p.PlanCacheEntries != 2 {
		t.Errorf("planner stats: %d DP runs, %d hits, %d statements with a plan; want 2, 4, 2",
			p.PlanRuns, p.PlanCacheHits, p.PlanCacheEntries)
	}
}

// TestShedding parks one admitted request in the test hook and checks
// that the next request is rejected with 429 instead of queueing.
func TestShedding(t *testing.T) {
	s, c, done := newTestServer(t, Config{MaxInFlight: 1})
	defer done()

	entered := make(chan struct{})
	release := make(chan struct{})
	s.admitted = func() {
		close(entered)
		<-release
	}

	first := make(chan error, 1)
	go func() {
		_, err := c.Plan(nationRegionSQL)
		first <- err
	}()
	<-entered
	s.admitted = nil

	_, err := c.Plan(nationRegionSQL)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("second request: got %v, want a 429 shed", err)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("parked request failed: %v", err)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Endpoints["plan"].Shed; got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
}

func TestDrain(t *testing.T) {
	s, c, done := newTestServer(t, Config{})
	defer done()

	if h := health(t, c); h.Status != "ok" {
		t.Fatalf("healthz before drain: %+v", h)
	}
	s.Drain()
	h := health(t, c)
	if h.Status != "draining" {
		t.Errorf("healthz status = %q, want draining", h.Status)
	}
	_, err := c.Plan(nationRegionSQL)
	var se *StatusError
	if err == nil || !asStatus(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Errorf("plan while draining: got %v, want 503", err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Draining {
		t.Error("stats do not report draining")
	}
}

// TestStrategyReporting: /plan and /explain report the resolved
// planning tier, and /stats carries the per-strategy DP-run counters.
func TestStrategyReporting(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()

	pr, err := c.Plan(tpcr.Query8SQL)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Strategy != "exact" {
		t.Errorf("/plan strategy = %q, want exact (Q8 is within the exact horizon)", pr.Strategy)
	}
	ex, err := explain(c, nationRegionSQL)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Strategy != "exact" {
		t.Errorf("/explain strategy = %q, want exact", ex.Strategy)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Planner.PlanRunsExact != 2 || st.Planner.PlanRunsLinearized != 0 {
		t.Errorf("/stats per-strategy runs = %d/%d, want 2/0",
			st.Planner.PlanRunsExact, st.Planner.PlanRunsLinearized)
	}
}

func newExecServer(t *testing.T) (*Server, *Client, func()) {
	t.Helper()
	return newTestServer(t, Config{Datasets: exec.TPCRLazyRegistry()})
}

func TestExecuteEndpoint(t *testing.T) {
	_, c, done := newExecServer(t)
	defer done()

	sql := "select * from orders, lineitem where o_orderkey = l_orderkey order by o_orderkey"
	resp, err := c.Execute(ExecuteRequest{SQL: sql, Dataset: "tpcr-small", MaxRows: 5})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if resp.Dataset != "tpcr-small" || resp.Source != "cold" {
		t.Errorf("dataset/source = %q/%q", resp.Dataset, resp.Source)
	}
	if resp.Plan == nil || resp.Cost <= 0 {
		t.Fatalf("missing plan tree: %+v", resp)
	}
	if resp.RowCount <= 0 || len(resp.Rows) != 5 || !resp.Truncated {
		t.Fatalf("rows: count=%d returned=%d truncated=%v", resp.RowCount, len(resp.Rows), resp.Truncated)
	}
	if len(resp.Columns) != 8 {
		t.Errorf("columns = %v", resp.Columns)
	}
	if len(resp.Operators) == 0 {
		t.Error("no operator stats")
	}
	var rowsOut int64
	for _, op := range resp.Operators {
		if op.Op == "MergeJoin" || op.Op == "HashJoin" || op.Op == "NestedLoopJoin" {
			rowsOut = op.Rows
			break
		}
	}
	if rowsOut != resp.RowCount {
		t.Errorf("join op rows %d != rowCount %d", rowsOut, resp.RowCount)
	}
	if resp.ExecNs <= 0 {
		t.Error("no execution time reported")
	}
	// The ordered merge pipeline should not have sorted anything.
	if resp.RowsSorted != 0 {
		t.Errorf("rowsSorted = %d, want 0 (clustered indexes deliver the order)", resp.RowsSorted)
	}
	// Ordering physically holds on the returned rows (o_orderkey first).
	for i := 1; i < len(resp.Rows); i++ {
		if resp.Rows[i][0] < resp.Rows[i-1][0] {
			t.Fatalf("result rows not ordered: %v", resp.Rows)
		}
	}

	// Second request: same plan from the cache, default dataset.
	again, err := c.Execute(ExecuteRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	if again.Source != "cachehit" {
		t.Errorf("second execute source = %q, want cachehit", again.Source)
	}
	if again.Dataset != "tpcr-small" {
		t.Errorf("default dataset = %q", again.Dataset)
	}
	if again.RowCount != resp.RowCount {
		t.Errorf("row counts differ across runs: %d vs %d", again.RowCount, resp.RowCount)
	}

	// A grouped query ends with the aggregate column.
	grouped, err := c.Execute(ExecuteRequest{
		SQL: "select * from orders, customer where o_custkey = c_custkey group by c_nationkey order by c_nationkey",
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(grouped.Columns); n == 0 || grouped.Columns[n-1] != "count(*)" {
		t.Errorf("grouped columns = %v", grouped.Columns)
	}

	// /stats now carries the execute endpoint.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Endpoints["execute"].Requests != 3 {
		t.Errorf("execute endpoint stats = %+v", st.Endpoints["execute"])
	}
}

// TestExecuteLimitAndAggregates pins the /execute surface for top-k
// and multi-aggregate queries: the plan tree carries the Limit node's
// row cap, operators under a limit are marked `limited` with their
// actual (early-out) row counts, and aggregate select lists name their
// output columns.
func TestExecuteLimitAndAggregates(t *testing.T) {
	_, c, done := newExecServer(t)
	defer done()

	resp, err := c.Execute(ExecuteRequest{
		SQL:     "select * from orders, customer where o_custkey = c_custkey order by o_orderkey limit 7",
		Dataset: "tpcr-small",
	})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if resp.RowCount != 7 || len(resp.Rows) != 7 {
		t.Fatalf("rows: count=%d returned=%d", resp.RowCount, len(resp.Rows))
	}
	if resp.Plan == nil || resp.Plan.Op != "Limit" || resp.Plan.Limit != 7 {
		t.Fatalf("plan root is not the Limit node: %+v", resp.Plan)
	}
	for _, op := range resp.Operators {
		if op.Op == "Limit" {
			if op.Rows != 7 {
				t.Errorf("Limit operator rows = %d, want 7", op.Rows)
			}
			if op.Limited {
				t.Error("the Limit operator itself must not carry the limited marker")
			}
			continue
		}
		// Everything below the limit is marked: its Rows may stop short
		// of EstRows once the limit quiesces the pipeline.
		if !op.Limited {
			t.Errorf("operator %s under a Limit lacks the limited marker", op.Op)
		}
	}

	agg, err := c.Execute(ExecuteRequest{
		SQL: "select o_custkey, count(*), sum(o_orderdate), avg(o_orderdate), min(o_orderdate), max(o_orderdate)" +
			" from orders, customer where o_custkey = c_custkey group by o_custkey order by o_custkey",
		Dataset: "tpcr-small",
	})
	if err != nil {
		t.Fatalf("aggregate execute: %v", err)
	}
	want := []string{
		"orders.o_custkey", "count(*)", "sum(orders.o_orderdate)",
		"avg(orders.o_orderdate)", "min(orders.o_orderdate)", "max(orders.o_orderdate)",
	}
	if len(agg.Columns) != len(want) {
		t.Fatalf("aggregate columns = %v, want %v", agg.Columns, want)
	}
	for i, w := range want {
		if agg.Columns[i] != w {
			t.Fatalf("column %d = %q, want %q (all: %v)", i, agg.Columns[i], w, agg.Columns)
		}
	}
	if len(agg.Rows) == 0 || len(agg.Rows[0]) != len(want) {
		t.Fatalf("aggregate rows malformed: %v", agg.Rows)
	}
	// count ≥ 1 and min ≤ avg ≤ max on every group.
	for _, r := range agg.Rows {
		cnt, avg, min, max := r[1], r[3], r[4], r[5]
		if cnt < 1 || min > avg || avg > max {
			t.Fatalf("implausible aggregate row %v", r)
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	_, c, done := newExecServer(t)
	defer done()

	if _, err := c.Execute(ExecuteRequest{SQL: "select * from nation", Dataset: "nope"}); err == nil {
		t.Error("unknown dataset must fail")
	} else if se := new(StatusError); !asStatus(err, &se) || se.Code != http.StatusBadRequest {
		t.Errorf("unknown dataset error = %v", err)
	}
	if _, err := c.Execute(ExecuteRequest{SQL: ""}); err == nil {
		t.Error("empty sql must fail")
	}
	if _, err := c.Execute(ExecuteRequest{SQL: "select * from not_a_table"}); err == nil {
		t.Error("binding failure must fail")
	}

	// A dataset whose loader fails — or panics, the first time — is a
	// 500 naming the cause, not an unknown dataset; the panic does not
	// wedge the name, and the next request loads it.
	reg := exec.NewRegistry()
	reg.RegisterLazy("broken", "", func() (*exec.Dataset, error) { return nil, fmt.Errorf("disk on fire") })
	panicked := false
	reg.RegisterLazy("flaky", "", func() (*exec.Dataset, error) {
		if !panicked {
			panicked = true
			panic("generator bug")
		}
		return exec.NewDataset("flaky", "", tpcr.Schema(), tpcr.Generate(tpcr.DefaultGenSpec())), nil
	})
	_, lc, done3 := newTestServer(t, Config{Datasets: reg})
	defer done3()
	for _, tc := range []struct{ dataset, cause string }{{"broken", "disk on fire"}, {"flaky", "generator bug"}} {
		_, err := lc.Execute(ExecuteRequest{SQL: nationRegionSQL, Dataset: tc.dataset})
		if se := new(StatusError); !asStatus(err, &se) || se.Code != http.StatusInternalServerError || !strings.Contains(se.Message, tc.cause) {
			t.Errorf("%s: loader failure answered %v, want a 500 naming %q", tc.dataset, err, tc.cause)
		}
	}
	if _, err := lc.Execute(ExecuteRequest{SQL: nationRegionSQL, Dataset: "flaky"}); err != nil {
		t.Errorf("flaky after its loader panicked: %v", err)
	}

	// Without a registry /execute is disabled.
	_, noExec, done2 := newTestServer(t, Config{})
	defer done2()
	if _, err := noExec.Execute(ExecuteRequest{SQL: "select * from nation"}); err == nil {
		t.Error("execute without datasets must fail")
	} else if se := new(StatusError); !asStatus(err, &se) || se.Code != http.StatusNotFound {
		t.Errorf("disabled execute error = %v", err)
	}
}

func TestExecuteDraining(t *testing.T) {
	s, c, done := newExecServer(t)
	defer done()
	s.Drain()
	_, err := c.Execute(ExecuteRequest{SQL: "select * from nation"})
	if se := new(StatusError); !asStatus(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Errorf("draining execute error = %v", err)
	}
}

// TestExecuteConcurrent hammers one server with parallel /execute
// requests over multiple datasets — shared immutable datasets, the
// statement cache, and per-request pipelines must all be race-free (run
// under -race via make race).
func TestExecuteConcurrent(t *testing.T) {
	_, c, done := newExecServer(t)
	defer done()

	sqls := []string{
		"select * from orders, lineitem where o_orderkey = l_orderkey order by o_orderkey",
		"select * from orders, customer where o_custkey = c_custkey group by c_nationkey order by c_nationkey",
		"select * from nation, region where n_regionkey = r_regionkey order by n_name",
	}
	datasets := []string{"tpcr-small", "tpcr-mid", ""}
	const workers = 8
	const perWorker = 6

	counts := make(map[string]int64) // sql+dataset → rowCount, must be stable
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sql := sqls[(w+i)%len(sqls)]
				ds := datasets[(w+i)%len(datasets)]
				resp, err := c.Execute(ExecuteRequest{SQL: sql, Dataset: ds, MaxRows: 3})
				if err != nil {
					errs <- err
					return
				}
				key := resp.Dataset + "|" + sql
				mu.Lock()
				if prev, ok := counts[key]; ok && prev != resp.RowCount {
					errs <- fmt.Errorf("%s: row count changed %d → %d", key, prev, resp.RowCount)
					mu.Unlock()
					return
				}
				counts[key] = resp.RowCount
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestExecuteParallel covers the parallel serving surface: a server
// whose planner parallelizes up to 4 workers reports exchange nodes
// (with their DOP) in the plan tree, honors the per-request maxDOP
// clamp, counts parallel queries per endpoint, and exposes the worker
// gauges on /healthz.
func TestExecuteParallel(t *testing.T) {
	cfg := planner.DefaultConfig(tpcr.Schema())
	cfg.Optimizer.MaxDOP = 4
	_, c, done := newTestServer(t, Config{
		Planner:  planner.New(cfg),
		Datasets: exec.TPCRLazyRegistry(),
		Workers:  4,
	})
	defer done()

	sql := "select * from orders, customer where o_custkey = c_custkey order by o_orderkey"
	exchangeDOP := func(resp *ExecuteResponse) int {
		for _, op := range resp.Operators {
			if op.Op == "ExchangeMerge" {
				return op.DOP
			}
		}
		return 0
	}

	resp, err := c.Execute(ExecuteRequest{SQL: sql, Dataset: "tpcr-mid"})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	var planDOP int
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		if n == nil {
			return
		}
		if n.Op == "ExchangeMerge" {
			planDOP = n.DOP
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(resp.Plan)
	if planDOP != 4 {
		t.Fatalf("plan tree exchange DOP = %d, want 4 (plan %+v)", planDOP, resp.Plan)
	}
	if got := exchangeDOP(resp); got != 4 {
		t.Fatalf("operator exchange DOP = %d, want 4", got)
	}
	for i := 1; i < len(resp.Rows); i++ {
		if resp.Rows[i][0] < resp.Rows[i-1][0] {
			t.Fatalf("parallel result rows not ordered: %v", resp.Rows)
		}
	}

	// The request-level clamp caps execution below the plan's DOP.
	clamped, err := c.Execute(ExecuteRequest{SQL: sql, Dataset: "tpcr-mid", MaxDOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := exchangeDOP(clamped); got != 2 {
		t.Fatalf("clamped exchange DOP = %d, want 2", got)
	}
	if clamped.RowCount != resp.RowCount {
		t.Fatalf("row count changed under clamp: %d vs %d", clamped.RowCount, resp.RowCount)
	}
	serial, err := c.Execute(ExecuteRequest{SQL: sql, Dataset: "tpcr-mid", MaxDOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := exchangeDOP(serial); got != 1 {
		t.Fatalf("serial exchange DOP = %d, want 1", got)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Endpoints["execute"].Parallel; got != 3 {
		t.Errorf("execute parallel counter = %d, want 3", got)
	}

	h := health(t, c)
	if h.Workers != 4 {
		t.Errorf("healthz workers = %d, want 4", h.Workers)
	}
	if h.GoMaxProcs < 1 {
		t.Errorf("healthz goMaxProcs = %d", h.GoMaxProcs)
	}
	if h.ActiveWorkers != 0 {
		t.Errorf("healthz activeWorkers = %d with no query in flight", h.ActiveWorkers)
	}
}
