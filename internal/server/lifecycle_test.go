package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orderopt/internal/exec"
	"orderopt/internal/faultinject"
	"orderopt/internal/optimizer"
	"orderopt/internal/planner"
	"orderopt/internal/tpcr"
)

const joinSQL = "select * from orders, lineitem where o_orderkey = l_orderkey order by o_orderkey"

// smallRegistry builds a one-dataset registry (tpcr-small only) so
// lifecycle tests don't pay for the mid and large generators. It is
// shared by every test server; server.New moves its resident charge to
// the new server's accountant (Registry.SetAccountant), so a test that
// sets a memory limit on it sees the dataset inside that limit. The
// package's tests do not run in parallel, so no two servers hold it at
// once.
var smallRegistry = sync.OnceValue(func() *exec.Registry {
	return preloaded(exec.NewDataset("tpcr-small", "lifecycle test fixture", tpcr.Schema(), tpcr.Generate(tpcr.DefaultGenSpec())))
})

// preloaded returns a registry whose loaders return the given datasets,
// each loaded already.
func preloaded(datasets ...*exec.Dataset) *exec.Registry {
	reg := exec.NewRegistry()
	for _, ds := range datasets {
		reg.RegisterLazy(ds.Name, ds.Desc, func() (*exec.Dataset, error) { return ds, nil })
		_, _ = reg.Get(ds.Name) // cannot fail: the loader returns ds and nothing limits memory yet
	}
	return reg
}

// hangHook wedges every pipeline on its first row; only cancellation
// releases it.
func hangHook() exec.IterHook {
	return faultinject.Hook("*", faultinject.Fault{Kind: faultinject.HangAt, AtRow: 1})
}

// postExecuteRaw posts to /execute and decodes the error body whole —
// the typed Code and partial Operators that Client's StatusError does
// not carry.
func postExecuteRaw(t *testing.T, url string, req ExecuteRequest) (int, ErrorResponse, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	// Bounded, so a request that never ends fails its test instead of
	// hanging it.
	client := &http.Client{Timeout: 30 * time.Second}
	res, err := client.Post(url+"/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var e ErrorResponse
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
	return res.StatusCode, e, res.Header
}

// TestExecuteTimeout: a wedged pipeline under a client deadline must
// come back as a prompt typed 504 carrying the partial operator
// counters, and the stats must count it.
func TestExecuteTimeout(t *testing.T) {
	_, c, done := newTestServer(t, Config{Datasets: smallRegistry(), ExecHook: hangHook()})
	defer done()

	const timeoutMs = 50
	begin := time.Now()
	status, e, _ := postExecuteRaw(t, c.BaseURL, ExecuteRequest{
		SQL: joinSQL, Dataset: "tpcr-small", TimeoutMs: timeoutMs,
	})
	elapsed := time.Since(begin)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", status, e.Error)
	}
	if e.Code != "timeout" {
		t.Errorf("code %q, want timeout", e.Code)
	}
	if len(e.Operators) == 0 {
		t.Error("504 carries no partial operator stats")
	}
	// The acceptance bar is deadline+100ms; allow scheduler slack on
	// loaded CI machines while still catching hangs-to-completion.
	if limit := timeoutMs*time.Millisecond + 500*time.Millisecond; elapsed > limit {
		t.Errorf("504 took %v, want under %v", elapsed, limit)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Endpoints["execute"].TimedOut; got != 1 {
		t.Errorf("execute timedOut = %d, want 1", got)
	}
}

// TestExecuteDefaultTimeout: the server-wide default deadline applies
// when the client sends none.
func TestExecuteDefaultTimeout(t *testing.T) {
	_, c, done := newTestServer(t, Config{
		Datasets:       smallRegistry(),
		ExecHook:       hangHook(),
		DefaultTimeout: 50 * time.Millisecond,
	})
	defer done()

	status, e, _ := postExecuteRaw(t, c.BaseURL, ExecuteRequest{SQL: joinSQL, Dataset: "tpcr-small"})
	if status != http.StatusGatewayTimeout || e.Code != "timeout" {
		t.Fatalf("status %d code %q, want 504/timeout", status, e.Code)
	}
}

// TestTimeoutClamp: a client asking for more than MaxTimeout gets the
// clamp, not the ask — the wedged pipeline must still 504 quickly, also
// when the ask in nanoseconds overflows int64 (to a negative deadline,
// which is none, or to a wrapped tiny one).
func TestTimeoutClamp(t *testing.T) {
	_, c, done := newTestServer(t, Config{
		Datasets:   smallRegistry(),
		ExecHook:   hangHook(),
		MaxTimeout: 50 * time.Millisecond,
	})
	defer done()

	for _, timeoutMs := range []int{60_000, 9223372036855, 18446744073710, math.MaxInt64} {
		begin := time.Now()
		status, e, _ := postExecuteRaw(t, c.BaseURL, ExecuteRequest{
			SQL: joinSQL, Dataset: "tpcr-small", TimeoutMs: timeoutMs,
		})
		if status != http.StatusGatewayTimeout || e.Code != "timeout" {
			t.Errorf("timeoutMs %d: status %d code %q, want 504/timeout", timeoutMs, status, e.Code)
		}
		if elapsed := time.Since(begin); elapsed > 5*time.Second {
			t.Errorf("timeoutMs %d: clamp ignored: 504 took %v", timeoutMs, elapsed)
		}
	}
}

// TestFaultIsolation: a server full of hung, aborted pipelines still
// serves the traffic that is not broken. The same load runs twice, 4
// closed-loop /plan clients and 2 /execute victims under a 25 ms
// deadline, first with working pipelines, then with every victim
// pipeline wedged on its first row. In the faulted phase every victim
// must end as a prompt typed 504, not a stuck connection or another
// error; planning must see no errors, and its throughput must not
// collapse against the fault-free phase (asserted loosely: CI noise).
func TestFaultIsolation(t *testing.T) {
	const (
		workers, victims = 4, 2
		phase            = 400 * time.Millisecond
		timeoutMs        = 25
	)
	type outcome struct {
		planQPS, victimMeanMs            float64
		planErrs, victimReqs             int64
		victimOK, victim504, victimOther int64
	}
	run := func(hook exec.IterHook) outcome {
		_, c, done := newTestServer(t, Config{Datasets: smallRegistry(), ExecHook: hook})
		defer done()
		tr := &http.Transport{MaxIdleConnsPerHost: workers + victims}
		defer tr.CloseIdleConnections()
		c.HTTPClient = &http.Client{Transport: tr}
		// Store the statement's plan: planning measures the serving path, not
		// the first DP.
		if _, err := c.Plan(tpcr.Query8SQL); err != nil {
			t.Fatal(err)
		}

		var planned, planErrs, reqs, ok, timeouts, other, victimNs atomic.Int64
		ctx, cancel := context.WithTimeout(context.Background(), phase)
		defer cancel()
		var wg sync.WaitGroup
		start := time.Now()
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					_, err := c.PlanContext(ctx, tpcr.Query8SQL)
					var se *StatusError
					switch {
					case err == nil:
						planned.Add(1)
					case errors.As(err, &se) && se.Code == http.StatusTooManyRequests, ctx.Err() != nil: // shed, or cut when the phase ended
					default:
						planErrs.Add(1)
					}
				}
			}()
		}
		for range victims {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := ExecuteRequest{SQL: joinSQL, Dataset: "tpcr-small", MaxRows: 1, TimeoutMs: timeoutMs}
				for ctx.Err() == nil {
					begin := time.Now()
					_, err := c.ExecuteContext(ctx, req)
					var se *StatusError
					switch {
					case err == nil:
						ok.Add(1)
					case errors.As(err, &se) && se.Code == http.StatusGatewayTimeout:
						timeouts.Add(1)
					case ctx.Err() != nil: // cut when the phase ended: not counted
						continue
					default:
						other.Add(1)
					}
					reqs.Add(1)
					victimNs.Add(time.Since(begin).Nanoseconds())
				}
			}()
		}
		wg.Wait()
		o := outcome{
			planQPS:  float64(planned.Load()) / time.Since(start).Seconds(),
			planErrs: planErrs.Load(), victimReqs: reqs.Load(),
			victimOK: ok.Load(), victim504: timeouts.Load(), victimOther: other.Load(),
		}
		if o.victimReqs > 0 {
			o.victimMeanMs = float64(victimNs.Load()) / float64(o.victimReqs) / 1e6
		}
		return o
	}

	healthy, faulted := run(nil), run(hangHook())
	for name, o := range map[string]outcome{"healthy": healthy, "faulted": faulted} {
		if o.planErrs != 0 {
			t.Errorf("%s: %d planning errors", name, o.planErrs)
		}
		if o.planQPS <= 0 || o.victimReqs <= 0 {
			t.Errorf("%s: no planning throughput or no victim requests: %+v", name, o)
		}
	}
	if faulted.victim504 == 0 || faulted.victimOK != 0 || faulted.victimOther != 0 {
		t.Errorf("faulted: victims must all end as 504s, got %d 504, %d ok, %d other",
			faulted.victim504, faulted.victimOK, faulted.victimOther)
	}
	// Hangs are released by the deadline, not at some multiple of it.
	if lim := float64(timeoutMs) + 100; faulted.victimMeanMs > lim {
		t.Errorf("faulted: victim mean latency %.1fms past the %dms deadline", faulted.victimMeanMs, timeoutMs)
	}
	if faulted.planQPS < 0.2*healthy.planQPS {
		t.Errorf("planning collapsed under faults: %.0f qps vs %.0f fault-free", faulted.planQPS, healthy.planQPS)
	}
}

// TestExecuteBudget: a per-query byte budget too small for what the
// join buffers must yield a typed 429 with Retry-After, counted in stats.
func TestExecuteBudget(t *testing.T) {
	_, c, done := newTestServer(t, Config{
		Datasets:    smallRegistry(),
		QueryBudget: exec.Budget{MaxBytes: 512},
	})
	defer done()

	status, e, hdr := postExecuteRaw(t, c.BaseURL, ExecuteRequest{SQL: joinSQL, Dataset: "tpcr-small"})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", status, e.Error)
	}
	if e.Code != "budget" {
		t.Errorf("code %q, want budget", e.Code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("budget rejection without Retry-After")
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Endpoints["execute"].BudgetRejected; got != 1 {
		t.Errorf("execute budgetRejected = %d, want 1", got)
	}
	// The client returns the rejection once, typed.
	_, err = c.Execute(ExecuteRequest{SQL: joinSQL, Dataset: "tpcr-small"})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests || se.Kind != "budget" {
		t.Errorf("budget rejection surfaced as %v, want a 429 budget StatusError", err)
	}
}

// TestExecuteBufferedHoldsOnlyWhatItReturns: a buffered /execute holds
// the rows it returns, not the whole result. The order-flow statement's
// 40,000 rows on tpcr-large are served under a 1 MiB query budget with
// the same rows and operator counters as without one.
func TestExecuteBufferedHoldsOnlyWhatItReturns(t *testing.T) {
	req := ExecuteRequest{SQL: benchOrderflowSQL, Dataset: "tpcr-large"}
	var resps [2]ExecuteResponse
	for i, budget := range []int64{0, 1 << 20} {
		cfg := planner.DefaultConfig(tpcr.Schema())
		cfg.Optimizer = optimizer.DefaultConfig(optimizer.ModeDFSM)
		cfg.Optimizer.MaxDOP = 1
		s := New(Config{Planner: planner.New(cfg), Datasets: exec.TPCRLazyRegistry(), Workers: 1,
			QueryBudget: exec.Budget{MaxBytes: budget}})
		if err := json.Unmarshal(serve(t, s, "/execute", req).Body.Bytes(), &resps[i]); err != nil {
			t.Fatal(err)
		}
	}
	free, budgeted := resps[0], resps[1]
	if budgeted.RowCount != 40_000 || !budgeted.Truncated {
		t.Errorf("rowCount %d (truncated %v), want 40000, truncated", budgeted.RowCount, budgeted.Truncated)
	}
	if len(budgeted.Rows) != DefaultExecuteMaxRows || !reflect.DeepEqual(budgeted.Rows, free.Rows) {
		t.Errorf("budgeted rows %v, unbudgeted %v", budgeted.Rows, free.Rows)
	}
	for _, r := range []*ExecuteResponse{&free, &budgeted} {
		for i := range r.Operators {
			r.Operators[i].TimeNs = 0
		}
	}
	if !reflect.DeepEqual(budgeted.Operators, free.Operators) {
		t.Errorf("budgeted operators %+v, unbudgeted %+v", budgeted.Operators, free.Operators)
	}
}

// sortDataset is tpcr-small at four times its size: sortSQL's join
// output and sort run take ≈ 108 KiB there (serially planned: 110,976
// bytes of chunks and row headers), more than the admission reserve
// that covers a pipeline's first bytes, so a limit that admits the
// request can still be too small for its pipeline. On tpcr-small the
// whole sort (41,344 bytes) fits inside the reserve.
func sortDataset(name string) *exec.Dataset {
	return exec.NewDataset(name, "", tpcr.Schema(), tpcr.Generate(tpcr.DefaultGenSpec().Scale(4)))
}

// TestGlobalMemBudget: the shared accountant bounds every pipeline next
// to the resident datasets and shows up in the health and stats
// gauges. The limit admits the request (the dataset and one
// reservation fit) but leaves the pipeline only that reservation, which
// it adopts for its first bytes, and 1 KiB more.
func TestGlobalMemBudget(t *testing.T) {
	reg := preloaded(sortDataset("tpcr-small4"))
	limit := reg.ResidentBytes() + DefaultQueryReserveBytes + 1<<10
	_, c, done := newTestServer(t, Config{Datasets: reg, MemLimitBytes: limit})
	defer done()

	// Ordering the join by a non-key column forces a full sort of the
	// join output — far more than the global budget allows.
	status, e, _ := postExecuteRaw(t, c.BaseURL, ExecuteRequest{SQL: sortSQL, Dataset: "tpcr-small4"})
	if status != http.StatusTooManyRequests || e.Code != "budget" {
		t.Fatalf("status %d code %q, want 429/budget", status, e.Code)
	}

	h := health(t, c)
	if h.MemLimitBytes != limit {
		t.Errorf("healthz memLimitBytes = %d, want %d", h.MemLimitBytes, limit)
	}
	if h.RegistryBytes == 0 || h.MemUsedBytes != h.RegistryBytes {
		t.Errorf("healthz memUsedBytes = %d after rejection, want the %d resident bytes (budget released)", h.MemUsedBytes, h.RegistryBytes)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.MemLimitBytes != limit || stats.MemUsedBytes != stats.Registry.ResidentBytes {
		t.Errorf("stats mem gauges = %d/%d, want %d/%d", stats.MemUsedBytes, stats.MemLimitBytes, stats.Registry.ResidentBytes, limit)
	}
	if ep := stats.Endpoints["execute"]; ep.BudgetRejected != 1 || ep.MemShed != 0 {
		t.Errorf("execute budgetRejected = %d, memShed = %d; want 1, 0 (the pipeline, not admission)", ep.BudgetRejected, ep.MemShed)
	}
}

// TestMemLimitCoversResidentDatasets: the memory limit bounds resident
// datasets and running pipelines together. Each case builds its own
// registry, so what it charges is this server's alone.
func TestMemLimitCoversResidentDatasets(t *testing.T) {
	tpcrSmall := func(name string) (*exec.Dataset, error) {
		return exec.NewDataset(name, "", tpcr.Schema(), tpcr.Generate(tpcr.DefaultGenSpec())), nil
	}

	// The sort holds ~88 KiB at its peak. A pipeline that saw only its
	// own and the other queries' bytes would fit in the reservation it
	// adopts and the 4 KiB left over it, plus the ~132 KiB the dataset
	// holds; it does not, because the dataset is inside the limit too.
	t.Run("pipeline", func(t *testing.T) {
		ds := sortDataset("tpcr-small4")
		reg := preloaded(ds)
		_, c, done := newTestServer(t, Config{Datasets: reg, MemLimitBytes: ds.MemBytes() + DefaultQueryReserveBytes + 4<<10})
		defer done()
		status, e, _ := postExecuteRaw(t, c.BaseURL, ExecuteRequest{SQL: sortSQL, Dataset: "tpcr-small4"})
		if status != http.StatusTooManyRequests || e.Code != "budget" {
			t.Fatalf("status %d code %q (%s), want 429/budget", status, e.Code, e.Error)
		}
	})

	// Room for two idle datasets and one query: a third dataset's load
	// evicts the least recently used one instead of failing.
	t.Run("evicts-idle", func(t *testing.T) {
		reg := exec.NewRegistry()
		for _, name := range []string{"a", "b", "c"} {
			reg.RegisterLazy(name, "", func() (*exec.Dataset, error) { return tpcrSmall(name) })
		}
		one, _ := tpcrSmall("a")
		_, c, done := newTestServer(t, Config{Datasets: reg, MemLimitBytes: 2*one.MemBytes() + DefaultQueryReserveBytes + 16<<10})
		defer done()
		for _, name := range []string{"a", "b", "a", "c"} { // b is the LRU when c loads
			if _, err := c.Execute(ExecuteRequest{SQL: joinSQL, Dataset: name}); err != nil {
				t.Fatalf("execute on %s: %v", name, err)
			}
		}
		stats, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		resident := map[string]bool{}
		for _, info := range stats.Registry.Datasets {
			resident[info.Name] = info.Resident
		}
		if !resident["a"] || resident["b"] || !resident["c"] || stats.Registry.Evictions != 1 {
			t.Errorf("residency %v after %d evictions, want a and c resident after 1", resident, stats.Registry.Evictions)
		}
		if stats.MemUsedBytes != stats.Registry.ResidentBytes || stats.MemUsedBytes > stats.MemLimitBytes {
			t.Errorf("memUsedBytes %d, resident %d, limit %d; want used = resident <= limit",
				stats.MemUsedBytes, stats.Registry.ResidentBytes, stats.MemLimitBytes)
		}
	})
}

// TestExecuteClientCancel: when the client goes away mid-pipeline the
// server must cancel the work and count it as canceled, not as an
// ordinary error.
func TestExecuteClientCancel(t *testing.T) {
	_, c, done := newTestServer(t, Config{Datasets: smallRegistry(), ExecHook: hangHook()})
	defer done()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.ExecuteContext(ctx, ExecuteRequest{SQL: joinSQL, Dataset: "tpcr-small"})
	if err == nil {
		t.Fatal("wedged execute succeeded despite client cancel")
	}
	// The handler finishes asynchronously after the client is gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Endpoints["execute"].Canceled >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled counter never incremented: %+v", stats.Endpoints["execute"])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDrainAndWait: draining must wait for a running pipeline (here
// one bounded by its deadline) and reject new work meanwhile.
func TestDrainAndWait(t *testing.T) {
	s, c, done := newTestServer(t, Config{Datasets: smallRegistry(), ExecHook: hangHook()})
	defer done()

	started := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		close(started)
		postExecuteRaw(t, c.BaseURL, ExecuteRequest{
			SQL: joinSQL, Dataset: "tpcr-small", TimeoutMs: 150,
		})
	}()
	<-started
	time.Sleep(30 * time.Millisecond) // let the pipeline wedge

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.DrainAndWait(ctx); err != nil {
		t.Fatalf("drain cut short: %v", err)
	}
	select {
	case <-finished:
	case <-time.After(time.Second):
		t.Fatal("DrainAndWait returned with the request still in flight")
	}

	h := health(t, c)
	if !h.Draining || h.Status != "draining" {
		t.Errorf("healthz after drain: %+v", h)
	}
	if _, err := c.Plan(tpcr.Query8SQL); err == nil {
		t.Error("plan admitted while draining")
	}
}

// panicProbe is shared by one request's panicIters: armed fires one
// panic, opening counts the operator Opens in progress, and midOpen
// records whether the panic went off inside one.
type panicProbe struct {
	armed, midOpen atomic.Bool
	opening        atomic.Int64
	// openOf, when set, moves the panic from any operator's third row
	// into the Open of the operator whose detail contains it.
	openOf string
}

// panicIter panics on its third row, once per armed probe: the stand-in
// for an executor bug nobody wrote a test for.
type panicIter struct {
	exec.Iterator
	probe  *panicProbe
	detail string
	rows   int
}

func (p *panicIter) Open() error {
	p.probe.opening.Add(1)
	defer p.probe.opening.Add(-1)
	if p.probe.openOf != "" && strings.Contains(p.detail, p.probe.openOf) && p.probe.armed.CompareAndSwap(true, false) {
		p.probe.midOpen.Store(true)
		panic("injected operator bug")
	}
	return p.Iterator.Open()
}

func (p *panicIter) Next() (exec.Row, bool, error) {
	if p.rows++; p.rows == 3 && p.probe.openOf == "" && p.probe.armed.CompareAndSwap(true, false) {
		p.probe.midOpen.Store(p.probe.opening.Load() > 0)
		panic("injected operator bug")
	}
	return p.Iterator.Next()
}

// TestHandlerPanicRecovered: a panic in the middle of a running
// pipeline is one request's 500, not the end of the connection or of
// anything it held — the pin, the admission slot, the reservation, the
// budget charges and every opened operator are released on the way out,
// the panic is counted, and the next request is served. The streaming
// plan panics in a Next the handler drives; the blocking one inside the
// Open of the hash join draining its build side, which must close the
// input it opened as the panic unwinds; the third in the Open of a merge
// join's right input, after the left one opened.
func TestHandlerPanicRecovered(t *testing.T) {
	for _, tc := range []struct {
		name, sql, openOf string
		midOpen           bool
	}{
		{"streaming", joinSQL, "", false},
		{"blocking", tpcr.Query8SQL, "", true},
		{"right-open", joinSQL, "lineitem/", true}, // the scan, not the join naming it
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := preloaded(exec.NewDataset("tpcr-small", "", tpcr.Schema(), tpcr.Generate(tpcr.DefaultGenSpec())))
			var tracker faultinject.Tracker
			probe := panicProbe{openOf: tc.openOf}
			probe.armed.Store(true)
			hook := faultinject.Compose(
				func(op, detail string, it exec.Iterator, life *exec.Life) exec.Iterator {
					return &panicIter{Iterator: it, probe: &probe, detail: detail}
				},
				tracker.Hook())
			s, c, done := newTestServer(t, Config{Datasets: reg, ExecHook: hook, Workers: 1, MemLimitBytes: 1 << 30})
			defer done()

			req := ExecuteRequest{SQL: tc.sql, Dataset: "tpcr-small"}
			status, e, _ := postExecuteRaw(t, c.BaseURL, req)
			if status != http.StatusInternalServerError || e.Code != "panic" {
				t.Fatalf("status %d code %q (%s), want 500 panic", status, e.Code, e.Error)
			}
			if got := probe.midOpen.Load(); got != tc.midOpen {
				t.Errorf("panic inside an operator's Open: %v, want %v", got, tc.midOpen)
			}
			if _, err := c.Execute(req); err != nil {
				t.Fatalf("request after the panic: %v", err)
			}
			st, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Panics != 1 {
				t.Errorf("panics = %d, want 1", st.Panics)
			}
			if resident := reg.ResidentBytes(); st.InFlight != 0 || st.MemUsedBytes != resident || s.acct.Used() != resident {
				t.Errorf("after the panic: inFlight %d, memUsedBytes %d; want 0 and the %d resident bytes", st.InFlight, st.MemUsedBytes, resident)
			}
			for _, info := range reg.Info() {
				if info.Pins != 0 {
					t.Errorf("dataset %s still holds %d pins", info.Name, info.Pins)
				}
			}
			if tracker.Opened() == 0 || tracker.Leaked() != 0 {
				t.Errorf("operators: %d opened, %d leaked; want some and none", tracker.Opened(), tracker.Leaked())
			}
		})
	}
}
