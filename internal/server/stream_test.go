// The streaming /execute battery: wire protocol (header/rows/trailer),
// equivalence with the buffered path, the first-row-before-full-
// materialization property the paper's sort-free plans buy, client
// disconnect teardown, establishment-only retries, and the memory
// admission + registry eviction seams.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orderopt/internal/exec"
	"orderopt/internal/faultinject"
	"orderopt/internal/tpcr"
)

// scaledRegistry builds a single-dataset registry big enough that
// streamed results run to thousands of rows.
var scaledRegistry = sync.OnceValue(func() *exec.Registry {
	ds := exec.NewDataset("tpcr-scaled", "streaming test fixture", tpcr.Schema(), tpcr.Generate(tpcr.DefaultGenSpec().Scale(20)))
	reg := exec.NewRegistry()
	reg.Register(ds)
	return reg
})

// sortSQL orders the join by a non-key column, forcing a full sort of
// the join output — the order-oblivious shape that cannot stream its
// first row until everything is materialized.
const sortSQL = "select * from orders, lineitem where o_orderkey = l_orderkey order by o_orderdate"

// TestExecuteStreamMatchesBuffered: for every chunk size the streamed
// row sequence must be exactly the buffered response's rows — same
// rows, same order — with a coherent header and trailer around them.
func TestExecuteStreamMatchesBuffered(t *testing.T) {
	_, c, done := newTestServer(t, Config{Datasets: scaledRegistry()})
	defer done()

	// The buffered path caps its response at ExecuteRowCap rows; the
	// streamed result must agree with that prefix row-for-row and with
	// the full RowCount overall — streaming has no row cap, which is
	// half its reason to exist.
	buffered, err := c.Execute(ExecuteRequest{SQL: joinSQL, Dataset: "tpcr-scaled", MaxRows: ExecuteRowCap})
	if err != nil {
		t.Fatal(err)
	}
	if buffered.RowCount <= int64(len(buffered.Rows)) || !buffered.Truncated {
		t.Fatalf("fixture too small to exercise the row cap: %d rows total, %d returned",
			buffered.RowCount, len(buffered.Rows))
	}

	for _, chunk := range []int{1, 7, 4096} {
		st, err := c.ExecuteStream(ExecuteRequest{SQL: joinSQL, Dataset: "tpcr-scaled", ChunkRows: chunk})
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		h := st.Header()
		if h.Dataset != "tpcr-scaled" || h.Plan == nil || h.Cost <= 0 {
			t.Errorf("chunk %d: header incomplete: %+v", chunk, h)
		}
		if h.ChunkRows != chunk {
			t.Errorf("chunk %d: header chunkRows = %d", chunk, h.ChunkRows)
		}
		if len(h.Columns) != len(buffered.Columns) {
			t.Errorf("chunk %d: %d columns, buffered %d", chunk, len(h.Columns), len(buffered.Columns))
		}
		rows, err := st.Collect()
		if err != nil {
			t.Fatalf("chunk %d: collect: %v", chunk, err)
		}
		if int64(len(rows)) != buffered.RowCount {
			t.Fatalf("chunk %d: streamed %d rows, buffered RowCount %d", chunk, len(rows), buffered.RowCount)
		}
		for i := range buffered.Rows {
			for j := range buffered.Rows[i] {
				if rows[i][j] != buffered.Rows[i][j] {
					t.Fatalf("chunk %d: row %d col %d: %d, want %d (order or content diverged)",
						chunk, i, j, rows[i][j], buffered.Rows[i][j])
				}
			}
		}
		tr := st.Trailer()
		if tr == nil {
			t.Fatalf("chunk %d: no trailer after a clean drain", chunk)
		}
		if tr.RowCount != int64(len(rows)) {
			t.Errorf("chunk %d: trailer rowCount %d, streamed %d", chunk, tr.RowCount, len(rows))
		}
		if tr.RowsSorted != 0 {
			t.Errorf("chunk %d: sort-free plan reported %d sorted rows", chunk, tr.RowsSorted)
		}
		if len(tr.Operators) == 0 {
			t.Errorf("chunk %d: trailer carries no operator stats", chunk)
		}
		st.Close()
	}
}

// TestExecuteStreamAggregates: a grouped aggregate streams too (the
// rows are just narrower), with aggregate column names in the header.
func TestExecuteStreamAggregates(t *testing.T) {
	_, c, done := newTestServer(t, Config{Datasets: smallRegistry()})
	defer done()

	sql := "select count(*) from orders, lineitem where o_orderkey = l_orderkey group by o_custkey"
	st, err := c.ExecuteStream(ExecuteRequest{SQL: sql, Dataset: "tpcr-small"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rows, err := st.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("grouped stream produced no rows")
	}
	buffered, err := c.Execute(ExecuteRequest{SQL: sql, Dataset: "tpcr-small", MaxRows: ExecuteRowCap})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rows)) != buffered.RowCount {
		t.Errorf("streamed %d groups, buffered %d", len(rows), buffered.RowCount)
	}
	if len(st.Header().Columns) == 0 {
		t.Error("header carries no aggregate column names")
	}
}

// TestExecuteStreamFirstRowBeforeMaterialization is the serving-level
// acceptance test: with every operator wedged at its 5000th row, full
// materialization is impossible — yet the sort-free plan's first row
// frames must still arrive, because a pipelined merge join needs only
// a chunk's worth of input per chunk of output. The order-oblivious
// shape (top sort) under the same wedge must produce no row frame at
// all: its sort would have to consume everything first.
func TestExecuteStreamFirstRowBeforeMaterialization(t *testing.T) {
	reg := exec.TPCRLazyRegistry()
	_, c, done := newTestServer(t, Config{
		Datasets: reg,
		ExecHook: faultinject.Hook("*", faultinject.Fault{Kind: faultinject.HangAt, AtRow: 5000}),
	})
	defer done()

	// Sort-free: rows flow while the pipeline is (permanently) unfinished.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.ExecuteStreamContext(ctx, ExecuteRequest{SQL: joinSQL, Dataset: "tpcr-large", ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	var got int
	for got < 256 {
		if _, ok, err := st.Next(); err != nil || !ok {
			t.Fatalf("sort-free stream ended after %d rows (ok=%v err=%v), want rows before the wedge", got, ok, err)
		}
		got++
	}
	st.Close() // disconnect: the server-side pipeline is still wedged

	// Order-oblivious: same wedge, but the top sort must drain its
	// input before the first row — which the wedge forbids. No row
	// frame may arrive; the client deadline cuts the wait.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel2()
	st2, err := c.ExecuteStreamContext(ctx2, ExecuteRequest{SQL: sortSQL, Dataset: "tpcr-large", ChunkRows: 64})
	if err != nil {
		// Establishment may already observe the deadline; that is the
		// same outcome (no rows before materialization).
		return
	}
	defer st2.Close()
	if _, ok, _ := st2.Next(); ok {
		t.Fatal("order-oblivious plan produced a row frame while its input was wedged before the sort finished")
	}
}

// TestExecuteStreamClientDisconnect: a client that walks away
// mid-stream must count as canceled (the 499 convention), close every
// operator it opened, and leave no bytes charged on the shared
// accountant but the resident dataset's. Runs under -race in the faults
// battery.
func TestExecuteStreamClientDisconnect(t *testing.T) {
	tracker := &faultinject.Tracker{}
	slow := faultinject.Hook("*", faultinject.Fault{Kind: faultinject.Delay, Sleep: 200 * time.Microsecond})
	s, c, done := newTestServer(t, Config{
		Datasets:      scaledRegistry(),
		ExecHook:      faultinject.Compose(tracker.Hook(), slow),
		MemLimitBytes: 256 << 20,
	})
	defer done()

	st, err := c.ExecuteStream(ExecuteRequest{SQL: joinSQL, Dataset: "tpcr-scaled", ChunkRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, ok, err := st.Next(); err != nil || !ok {
			t.Fatalf("pull %d failed before the disconnect: ok=%v err=%v", i, ok, err)
		}
	}
	st.Close() // mid-stream: thousands of rows remain

	// The handler notices the dead connection on a later write (or the
	// request context), aborts the pipeline, and counts a cancel.
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Endpoints["execute"].Canceled >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled counter never incremented after a mid-stream disconnect: %+v",
				stats.Endpoints["execute"])
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Wait for the handler to fully unwind before counting leaks.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.DrainAndWait(ctx); err != nil {
		t.Fatalf("drain after disconnect: %v", err)
	}
	if tracker.Opened() == 0 {
		t.Fatal("tracker saw no operators; the hook seam is broken")
	}
	if leaked := tracker.Leaked(); leaked != 0 {
		t.Errorf("%d operators still open after the disconnected request drained", leaked)
	}
	if used, resident := s.acct.Used(), s.datasets.ResidentBytes(); used != resident {
		t.Errorf("%d bytes charged after the disconnected request drained, want the %d resident bytes", used, resident)
	}
}

// TestStreamRetryEstablishment: 429/503 during establishment carry no
// frames, so the client's retry policy must absorb them — the stream
// that finally establishes yields the full result exactly once.
func TestStreamRetryEstablishment(t *testing.T) {
	s, _, done := newTestServer(t, Config{Datasets: smallRegistry()})
	defer done()
	fh := &flakyHandler{fail: 2, status: http.StatusTooManyRequests, next: s}
	ts := httptest.NewServer(fh)
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Retry = &RetryPolicy{MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}

	st, err := c.ExecuteStream(ExecuteRequest{SQL: joinSQL, Dataset: "tpcr-small"})
	if err != nil {
		t.Fatalf("retries did not absorb the establishment flake: %v", err)
	}
	defer st.Close()
	rows, err := st.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got := fh.hits.Load(); got != 3 {
		t.Errorf("%d attempts, want 3 (two shed, one served)", got)
	}
	if tr := st.Trailer(); tr == nil || tr.RowCount != int64(len(rows)) {
		t.Errorf("retried stream delivered %d rows, trailer %+v", len(rows), tr)
	}
}

// TestStreamNoRetryMidStream: once the header frame is on the wire the
// request is committed — a connection cut before the trailer is a
// terminal error after exactly one attempt, never a silent re-issue
// that would duplicate consumed rows.
func TestStreamNoRetryMidStream(t *testing.T) {
	// A handcrafted streaming endpoint that dies after one rows frame.
	var hits atomic.Int64
	cut := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"frame":"header","columns":["a"],"chunkRows":1}`)
		fmt.Fprintln(w, `{"frame":"rows","rows":[[1],[2]]}`)
		w.(http.Flusher).Flush()
		// Sever the connection without a trailer.
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("test server cannot hijack")
			return
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close()
	}))
	defer cut.Close()

	c := NewClient(cut.URL)
	c.Retry = &RetryPolicy{MaxRetries: 5, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	st, err := c.ExecuteStream(ExecuteRequest{SQL: joinSQL, Dataset: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rows, err := st.Collect()
	if err == nil {
		t.Fatal("cut stream drained without an error")
	}
	if len(rows) != 2 {
		t.Errorf("consumed %d rows before the cut, want 2", len(rows))
	}
	if IsRetryable(err) {
		t.Errorf("mid-stream cut classified retryable: %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("%d attempts for a mid-stream cut, want exactly 1", got)
	}
}

// TestStreamTrailerAbortNotRetried: a pipeline failure reported in the
// trailer (here: a query budget) surfaces as a StreamAbort with the
// lifecycle code, is not retryable, and cost exactly one attempt.
func TestStreamTrailerAbortNotRetried(t *testing.T) {
	s, _, done := newTestServer(t, Config{
		Datasets:    smallRegistry(),
		QueryBudget: exec.Budget{MaxBytes: 1 << 10},
	})
	defer done()
	fh := &flakyHandler{fail: 0, status: 0, next: s}
	ts := httptest.NewServer(fh)
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Retry = &RetryPolicy{MaxRetries: 5, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}

	// The sort shape buffers, so the tiny byte budget trips mid-pipeline
	// — after the header frame committed the request.
	st, err := c.ExecuteStream(ExecuteRequest{SQL: sortSQL, Dataset: "tpcr-small"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = st.Collect()
	var abort *StreamAbort
	if !errors.As(err, &abort) {
		t.Fatalf("trailer failure surfaced as %v, want StreamAbort", err)
	}
	if abort.Kind != "budget" {
		t.Errorf("abort kind %q, want budget", abort.Kind)
	}
	if IsRetryable(err) {
		t.Error("trailer abort classified retryable")
	}
	if got := fh.hits.Load(); got != 1 {
		t.Errorf("%d attempts for a trailer abort, want exactly 1", got)
	}
	if tr := st.Trailer(); tr == nil || tr.Code != "budget" {
		t.Errorf("trailer = %+v, want code budget", tr)
	}
}

// TestStreamErrorsBeforeHeader: failures before the header frame are
// plain HTTP errors — bad SQL and unknown datasets must not commit a
// 200 stream.
func TestStreamErrorsBeforeHeader(t *testing.T) {
	_, c, done := newTestServer(t, Config{Datasets: smallRegistry()})
	defer done()

	if _, err := c.ExecuteStream(ExecuteRequest{SQL: "select garbage", Dataset: "tpcr-small"}); err == nil {
		t.Error("bad SQL established a stream")
	} else {
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Errorf("bad SQL: %v, want a 400 StatusError", err)
		}
	}
	if _, err := c.ExecuteStream(ExecuteRequest{SQL: joinSQL, Dataset: "nope"}); err == nil {
		t.Error("unknown dataset established a stream")
	}
}

// TestMemoryAdmissionShedsLoad: a lazy dataset whose load cannot fit
// the memory limit next to a sticky dataset sheds the request with
// 429/budget/Retry-After and counts it in the memShed metric — and the
// server stays healthy for requests against datasets that do fit.
func TestMemoryAdmissionShedsLoad(t *testing.T) {
	small := exec.NewDataset("fits", "small enough", tpcr.Schema(), tpcr.Generate(tpcr.DefaultGenSpec()))
	reg := exec.NewRegistry()
	reg.Register(small)
	reg.RegisterLazy("huge", "never fits", func() (*exec.Dataset, error) {
		return exec.NewDataset("huge", "", tpcr.Schema(), tpcr.Generate(tpcr.DefaultGenSpec().Scale(4))), nil
	})
	// Room for the sticky dataset, one query's reservation and 16 KiB of
	// pipeline headroom: the 4x-scaled dataset does not fit next to it.
	_, c, done := newTestServer(t, Config{Datasets: reg, MemLimitBytes: small.MemBytes() + DefaultQueryReserveBytes + 16<<10})
	defer done()

	status, e, hdr := postExecuteRaw(t, c.BaseURL, ExecuteRequest{SQL: joinSQL, Dataset: "huge"})
	if status != http.StatusTooManyRequests || e.Code != "budget" {
		t.Fatalf("status %d code %q (%s), want 429/budget", status, e.Code, e.Error)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("load shed without Retry-After")
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	ep := stats.Endpoints["execute"]
	if ep.MemShed != 1 || ep.Shed < 1 {
		t.Errorf("memShed = %d shed = %d after a load shed, want 1/>=1", ep.MemShed, ep.Shed)
	}
	// The resident dataset still serves.
	if _, err := c.Execute(ExecuteRequest{SQL: joinSQL, Dataset: "fits"}); err != nil {
		t.Errorf("resident dataset failed after the shed: %v", err)
	}
}

// TestMemoryAdmissionReserve: with a memory limit smaller than the
// per-query reservation every execute is shed up front — streaming
// ones included, before any frame is written.
func TestMemoryAdmissionReserve(t *testing.T) {
	_, c, done := newTestServer(t, Config{
		Datasets:      smallRegistry(),
		MemLimitBytes: DefaultQueryReserveBytes - 1,
	})
	defer done()

	status, e, hdr := postExecuteRaw(t, c.BaseURL, ExecuteRequest{SQL: joinSQL, Dataset: "tpcr-small"})
	if status != http.StatusTooManyRequests || e.Code != "budget" {
		t.Fatalf("status %d code %q, want 429/budget", status, e.Code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("admission shed without Retry-After")
	}
	if _, err := c.ExecuteStream(ExecuteRequest{SQL: joinSQL, Dataset: "tpcr-small"}); !IsShed(err) {
		t.Errorf("streaming request under admission pressure: %v, want a 429", err)
	}
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.MemUsedBytes != h.RegistryBytes {
		t.Errorf("memUsedBytes = %d after sheds, want the %d resident bytes (reservations released)", h.MemUsedBytes, h.RegistryBytes)
	}
}

// TestRegistryStatsSurface: /stats and /healthz expose the registry's
// lifecycle gauges.
func TestRegistryStatsSurface(t *testing.T) {
	var calls atomic.Int64
	reg := exec.NewRegistry()
	reg.RegisterLazy("lazy-a", "on demand", func() (*exec.Dataset, error) {
		calls.Add(1)
		return exec.NewDataset("lazy-a", "", tpcr.Schema(), tpcr.Generate(tpcr.DefaultGenSpec())), nil
	})
	_, c, done := newTestServer(t, Config{Datasets: reg})
	defer done()

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Registry == nil {
		t.Fatal("stats carries no registry block")
	}
	if stats.Registry.ResidentBytes != 0 || stats.Registry.Loads != 0 {
		t.Errorf("cold registry stats = %+v, want zero residency", stats.Registry)
	}
	if len(stats.Registry.Datasets) != 1 || stats.Registry.Datasets[0].Resident {
		t.Errorf("cold dataset info = %+v", stats.Registry.Datasets)
	}

	if _, err := c.Execute(ExecuteRequest{SQL: joinSQL, Dataset: "lazy-a"}); err != nil {
		t.Fatal(err)
	}
	stats, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	r := stats.Registry
	if r.ResidentBytes <= 0 || r.Loads != 1 || r.HighWaterBytes < r.ResidentBytes {
		t.Errorf("post-load registry stats = %+v", r)
	}
	if len(r.Datasets) != 1 || !r.Datasets[0].Resident || r.Datasets[0].Pins != 0 {
		t.Errorf("post-load dataset info = %+v", r.Datasets)
	}
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.RegistryBytes != r.ResidentBytes {
		t.Errorf("healthz registryBytes = %d, stats %d", h.RegistryBytes, r.ResidentBytes)
	}
}

// TestEvictVsExecute races eviction against streaming execution under
// -race: pins must keep every in-flight query's dataset alive, so all
// requests succeed with identical results while the dataset is
// repeatedly evicted and reloaded underneath them. Half the requests
// hash-join over a bare customer scan, so every reloaded copy also
// builds (once, whoever touches it first) the build table it keeps; at
// rest the registry carries exactly the resident copy's tables plus
// that derived state, and an eviction takes both.
func TestEvictVsExecute(t *testing.T) {
	const hashSQL = "select * from orders, customer where o_custkey = c_custkey order by o_orderkey"
	reg := exec.NewRegistry()
	reg.RegisterLazy("churn", "evicted constantly", func() (*exec.Dataset, error) {
		return exec.NewDataset("churn", "", tpcr.Schema(), tpcr.Generate(tpcr.DefaultGenSpec())), nil
	})
	srv, c, done := newTestServer(t, Config{Datasets: reg})
	defer done()

	refs := map[string]int64{}
	for _, sql := range []string{joinSQL, hashSQL} {
		ref, err := c.Execute(ExecuteRequest{SQL: sql, Dataset: "churn", MaxRows: ExecuteRowCap})
		if err != nil {
			t.Fatal(err)
		}
		refs[sql] = ref.RowCount
	}

	stop := make(chan struct{})
	var evictor sync.WaitGroup
	evictor.Add(1)
	go func() {
		defer evictor.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Evict("churn")
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				sql := []string{joinSQL, hashSQL}[i%2]
				st, err := c.ExecuteStream(ExecuteRequest{SQL: sql, Dataset: "churn", ChunkRows: 16})
				if err != nil {
					t.Errorf("stream under eviction churn: %v", err)
					return
				}
				rows, err := st.Collect()
				st.Close()
				if err != nil {
					t.Errorf("collect under eviction churn: %v", err)
					return
				}
				if int64(len(rows)) != refs[sql] {
					t.Errorf("eviction churn changed the result: %d rows, want %d", len(rows), refs[sql])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	evictor.Wait()

	// A handler unpins after its last write, which the client can see
	// before the handler returns: wait for the handlers, not the wire.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.DrainAndWait(ctx); err != nil {
		t.Fatalf("handlers still running after every response was read: %v", err)
	}
	// Every pin drained; the dataset is evictable again.
	for _, info := range reg.Info() {
		if info.Pins != 0 {
			t.Errorf("dataset %s still pinned after all requests finished", info.Name)
		}
	}

	// At rest the resident copy accounts for every byte, its build table
	// included, and all of it leaves with an eviction; the next acquire
	// reloads, and the next hash join over it rebuilds.
	pd, err := srv.Planner().PlanContext(context.Background(), hashSQL)
	if err != nil {
		t.Fatal(err)
	}
	compile := func() (adopted bool) {
		ds, unpin, err := reg.Acquire("churn")
		if err != nil {
			t.Fatal(err)
		}
		defer unpin()
		pipe, err := ds.Runner(pd.Origin.Analysis()).Compile(pd.Best)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range pipe.Ops {
			adopted = adopted || op.Resident
		}
		return adopted
	}
	adopted := compile()
	info := reg.Info()[0]
	if !adopted || info.DerivedBytes == 0 || info.BuildTables != 1 || reg.ResidentBytes() != info.Bytes {
		t.Errorf("at rest: adopted %v, info %+v, %d bytes resident; want one build table inside equal totals",
			adopted, info, reg.ResidentBytes())
	}
	_, misses, _ := reg.BuildCounts()
	loads := reg.Loads()
	if !reg.Evict("churn") || reg.ResidentBytes() != 0 {
		t.Fatalf("after evicting the idle dataset: %d bytes resident, want 0", reg.ResidentBytes())
	}
	if !compile() {
		t.Error("the reloaded dataset's build table was not adopted")
	}
	if _, m, _ := reg.BuildCounts(); reg.Loads() != loads+1 || m != misses+1 || reg.ResidentBytes() != info.Bytes {
		t.Errorf("after the reload: %d loads, %d build misses, %d bytes resident; want %d, %d, %d",
			reg.Loads(), m, reg.ResidentBytes(), loads+1, misses+1, info.Bytes)
	}
}

// TestStreamRawWire decodes the NDJSON frames by hand, pinning the
// wire shape (frame discriminators, one JSON value per line) that
// non-Go clients depend on.
func TestStreamRawWire(t *testing.T) {
	_, c, done := newTestServer(t, Config{Datasets: smallRegistry()})
	defer done()

	body, _ := json.Marshal(ExecuteRequest{SQL: joinSQL, Dataset: "tpcr-small", Stream: true, ChunkRows: 32})
	res, err := http.Post(c.BaseURL+"/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var frames []string
	var rowSum int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			t.Fatal("blank line inside an NDJSON stream")
		}
		var f struct {
			Frame string    `json:"frame"`
			Rows  [][]int64 `json:"rows"`
		}
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("frame is not one JSON value per line: %v (%q)", err, line)
		}
		frames = append(frames, f.Frame)
		rowSum += len(f.Rows)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(frames) < 3 || frames[0] != FrameHeader || frames[len(frames)-1] != FrameTrailer {
		t.Fatalf("frame sequence %v, want header ... trailer", frames)
	}
	for _, f := range frames[1 : len(frames)-1] {
		if f != FrameRows {
			t.Fatalf("unexpected mid-stream frame %q", f)
		}
	}
	if rowSum == 0 {
		t.Error("no rows crossed the wire")
	}
}
