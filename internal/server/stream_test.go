// The streaming /execute battery: wire protocol (header/rows/trailer),
// equivalence with the buffered path, the first-row-before-full-
// materialization property the paper's sort-free plans buy, client
// disconnect teardown, streams that are never re-issued, and the memory
// admission + registry eviction seams.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orderopt/internal/exec"
	"orderopt/internal/faultinject"
	"orderopt/internal/planner"
	"orderopt/internal/tpcr"
)

// scaledRegistry builds a single-dataset registry big enough that
// streamed results run to thousands of rows.
var scaledRegistry = sync.OnceValue(func() *exec.Registry {
	return preloaded(exec.NewDataset("tpcr-scaled", "streaming test fixture", tpcr.Schema(), tpcr.Generate(tpcr.DefaultGenSpec().Scale(20))))
})

// sortSQL orders the join by a non-key column, forcing a full sort of
// the join output — the order-oblivious shape that cannot stream its
// first row until everything is materialized.
const sortSQL = "select * from orders, lineitem where o_orderkey = l_orderkey order by o_orderdate"

// frameWatch is a ResponseWriter that fails its test when a streamed
// body is written after the handler returned, or in a write that does
// not end on a frame boundary.
type frameWatch struct {
	http.ResponseWriter
	t        *testing.T
	returned atomic.Bool
}

func (w *frameWatch) Write(b []byte) (int, error) {
	if w.returned.Load() {
		w.t.Errorf("%d bytes written after the handler returned", len(b))
	}
	if w.Header().Get("Content-Type") == "application/x-ndjson" && len(b) > 0 && b[len(b)-1] != '\n' {
		w.t.Errorf("a write of %d bytes ends inside a frame", len(b))
	}
	return w.ResponseWriter.Write(b)
}

func (w *frameWatch) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// newWatchedServer is newTestServer with every response written
// through a frameWatch.
func newWatchedServer(t *testing.T, cfg Config) (*Server, *Client, func()) {
	t.Helper()
	if cfg.Planner == nil {
		cfg.Planner = planner.New(planner.DefaultConfig(tpcr.Schema()))
	}
	s := New(cfg)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fw := &frameWatch{ResponseWriter: w, t: t}
		defer fw.returned.Store(true)
		s.ServeHTTP(fw, r)
	}))
	return s, NewClient(ts.URL), ts.Close
}

// executorRows runs sql on reg's dataset straight through the executor,
// with no server, hook or stream in between: the rows a stream of it
// must frame, in order.
func executorRows(t *testing.T, reg *exec.Registry, dataset, sql string) []exec.Row {
	t.Helper()
	pd, err := planner.New(planner.DefaultConfig(tpcr.Schema())).PlanContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	ds, unpin, err := reg.Acquire(dataset)
	if err != nil {
		t.Fatal(err)
	}
	defer unpin()
	pipe, err := ds.Runner(pd.Origin.Analysis()).Compile(pd.Best)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pipe.ExecuteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestExecuteStreamMatchesBuffered: for every chunk size the streamed
// row sequence must be exactly the buffered response's rows — same
// rows, same order — with a coherent header and trailer around them.
// Between the header and the trailer the body is byte for byte the
// executor's rows cut into chunkRows-row frames by AppendRowsFrame, and
// no write splits a frame, not even one over maxPendingBytes: batching
// frames changes when they are written, never what.
func TestExecuteStreamMatchesBuffered(t *testing.T) {
	_, c, done := newWatchedServer(t, Config{Datasets: scaledRegistry()})
	defer done()
	want := executorRows(t, scaledRegistry(), "tpcr-scaled", joinSQL)

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

	for _, chunk := range []int{1, 7, 256, 4096, exec.MaxStreamChunk} {
		var frames []byte
		for lo := 0; lo < len(want); lo += chunk {
			frames = AppendRowsFrame(frames, want[lo:min(lo+chunk, len(want))])
		}
		if chunk == exec.MaxStreamChunk && len(frames) <= maxPendingBytes {
			t.Fatalf("fixture too small: its one %d-row frame is %d bytes, not over the %d-byte batch", len(want), len(frames), maxPendingBytes)
		}
		body := postStreamRaw(t, c.BaseURL, ExecuteRequest{SQL: joinSQL, Dataset: "tpcr-scaled", Stream: true, ChunkRows: chunk})
		header, rest, _ := bytes.Cut(body, []byte("\n"))
		trailer := rest[bytes.LastIndexByte(rest[:len(rest)-1], '\n')+1:]
		if !bytes.HasPrefix(header, []byte(`{"frame":"header"`)) || !bytes.HasPrefix(trailer, []byte(`{"frame":"trailer"`)) {
			t.Fatalf("chunk %d: body does not run header ... trailer: %.100q ... %.100q", chunk, header, trailer)
		}
		if got := rest[:len(rest)-len(trailer)]; !bytes.Equal(got, frames) {
			t.Fatalf("chunk %d: %d bytes of rows frames, want the %d bytes AppendRowsFrame writes", chunk, len(got), len(frames))
		}

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

// postStreamRaw posts a streaming request and returns its body as sent.
func postStreamRaw(t *testing.T, url string, req ExecuteRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(url+"/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", res.StatusCode, err)
	}
	return b
}

// rowsBeforeStall returns how many of rows (joinSQL's, ordered by
// o_orderkey) the pipeline produces before a Delay from row at of the
// driving orders scan: that scan reads orders in key order from key 0,
// so its at-th row is key at-1, and rows of smaller keys come first.
func rowsBeforeStall(rows []exec.Row, at int64) int {
	n := 0
	for n < len(rows) && rows[n][0] < at-1 {
		n++
	}
	return n
}

// TestStreamPendingFrameBounded: a rows frame that waits behind the
// first for more frames to batch with waits at most maxFrameDelay. The
// driving orders scan sleeps before every row from some row on, far
// longer than the bound, so the frames produced before that stall reach
// the client within a quarter of one sleep only if a timer flushes
// them. The first rows frame, when the second needs a row from past the
// stall, must arrive before the second is produced.
func TestStreamPendingFrameBounded(t *testing.T) {
	const sleep = 4 * time.Second // per row; long enough that -race on 2 vCPUs keeps well inside a quarter
	rows := executorRows(t, scaledRegistry(), "tpcr-scaled", joinSQL)
	first := rows[0][0] + 2 // stall on the order after the first one joined
	pending := first
	for rowsBeforeStall(rows, pending) < 16 {
		pending++
	}
	for _, tc := range []struct {
		name  string
		at    int64 // the scan's first delayed row
		chunk int
	}{
		{"first frame", first, rowsBeforeStall(rows, first)},
		{"pending frames", pending, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, c, done := newTestServer(t, Config{
				Datasets: scaledRegistry(),
				ExecHook: faultinject.Hook("IndexScan:orders", faultinject.Fault{Kind: faultinject.Delay, AtRow: tc.at, Sleep: sleep}),
			})
			defer done()
			ctx, cancel := context.WithTimeout(context.Background(), sleep/4)
			defer cancel()
			st, err := c.ExecuteStreamContext(ctx, ExecuteRequest{SQL: joinSQL, Dataset: "tpcr-scaled", ChunkRows: tc.chunk})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close() // disconnects; the stalled scan observes the cancellation
			want := rowsBeforeStall(rows, tc.at)
			for got := 0; got < want; got++ {
				if _, ok, err := st.Next(); !ok {
					t.Fatalf("%d of the %d rows produced before the stall reached the client within %v (err %v)", got, want, sleep/4, err)
				}
			}
		})
	}
}

// TestStreamDisconnectWithPendingFrames: a client that leaves while rows
// frames wait to be batched and the pipeline sleeps in a stalled scan
// is counted as canceled; every operator closes, every charged byte
// comes back, and nothing is written after the handler returns, by the
// batch timer least of all.
func TestStreamDisconnectWithPendingFrames(t *testing.T) {
	rows := executorRows(t, scaledRegistry(), "tpcr-scaled", joinSQL)
	at := rows[0][0] + 2
	for rowsBeforeStall(rows, at) < 64 {
		at++
	}
	tracker := &faultinject.Tracker{}
	stall := faultinject.Hook("IndexScan:orders", faultinject.Fault{Kind: faultinject.Delay, AtRow: at, Sleep: time.Minute})
	s, c, done := newWatchedServer(t, Config{
		Datasets:      scaledRegistry(),
		ExecHook:      faultinject.Compose(tracker.Hook(), stall),
		MemLimitBytes: 256 << 20,
	})
	defer done()

	const rounds = 3
	for round := int64(1); round <= rounds; round++ {
		st, err := c.ExecuteStream(ExecuteRequest{SQL: joinSQL, Dataset: "tpcr-scaled", ChunkRows: 1})
		if err != nil {
			t.Fatal(err)
		}
		// The first frame left at once; the 63 or more produced right
		// after it wait for the timer when the client goes.
		if _, ok, err := st.Next(); !ok {
			t.Fatalf("round %d: no first row: %v", round, err)
		}
		st.Close()
		deadline := time.Now().Add(10 * time.Second)
		for {
			stats, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Endpoints["execute"].Canceled >= round {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: canceled counter never incremented after the disconnect: %+v", round, stats.Endpoints["execute"])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.DrainAndWait(ctx); err != nil {
		t.Fatalf("drain after the disconnects: %v", err)
	}
	if tracker.Opened() == 0 {
		t.Fatal("tracker saw no operators; the hook seam is broken")
	}
	if leaked := tracker.Leaked(); leaked != 0 {
		t.Errorf("%d operators still open after the disconnected requests drained", leaked)
	}
	if used, resident := s.acct.Used(), s.datasets.ResidentBytes(); used != resident {
		t.Errorf("%d bytes charged after the disconnected requests drained, want the %d resident bytes", used, resident)
	}
	// A timer that outlived its handler would fire within maxFrameDelay;
	// give it ten, then frameWatch has seen every write there will be.
	time.Sleep(10 * maxFrameDelay)
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
	var se *StatusError
	if errors.As(err, &se) {
		t.Errorf("mid-stream cut surfaced as a status: %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("%d attempts for a mid-stream cut, want exactly 1", got)
	}
}

// TestStreamTrailerAbortNotRetried: a pipeline failure reported in the
// trailer (here: a query budget) surfaces as a StreamAbort with the
// lifecycle code, not as a status, and cost exactly one attempt.
func TestStreamTrailerAbortNotRetried(t *testing.T) {
	s, _, done := newTestServer(t, Config{
		Datasets:    smallRegistry(),
		QueryBudget: exec.Budget{MaxBytes: 1 << 10},
	})
	defer done()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		s.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)

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
	var se *StatusError
	if errors.As(err, &se) {
		t.Errorf("trailer abort surfaced as a status: %v", err)
	}
	if got := hits.Load(); got != 1 {
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

// TestMemoryAdmissionShedsLoad: a dataset whose load cannot fit the
// memory limit sheds the request with 429/budget/Retry-After and counts
// it in the memShed metric — and the server stays healthy for requests
// against datasets that do fit.
func TestMemoryAdmissionShedsLoad(t *testing.T) {
	small := exec.NewDataset("fits", "small enough", tpcr.Schema(), tpcr.Generate(tpcr.DefaultGenSpec()))
	reg := preloaded(small)
	reg.RegisterLazy("huge", "never fits", func() (*exec.Dataset, error) {
		return exec.NewDataset("huge", "", tpcr.Schema(), tpcr.Generate(tpcr.DefaultGenSpec().Scale(4))), nil
	})
	// Room for the small dataset, one query's reservation and 16 KiB of
	// pipeline headroom: the 4x-scaled dataset does not fit in it.
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
	// The load that can never fit evicted nothing for it.
	if stats.Registry.Evictions != 0 || stats.Registry.Loads != 1 {
		t.Errorf("registry evictions %d, loads %d after the shed, want 0/1: the refused load evicted \"fits\"",
			stats.Registry.Evictions, stats.Registry.Loads)
	}
	// The small dataset still serves.
	if _, err := c.Execute(ExecuteRequest{SQL: joinSQL, Dataset: "fits"}); err != nil {
		t.Errorf("small dataset failed after the shed: %v", err)
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
	var se *StatusError
	if _, err := c.ExecuteStream(ExecuteRequest{SQL: joinSQL, Dataset: "tpcr-small"}); !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Errorf("streaming request under admission pressure: %v, want a 429", err)
	}
	h := health(t, c)
	if h.MemUsedBytes != h.RegistryBytes {
		t.Errorf("memUsedBytes = %d after sheds, want the %d resident bytes (reservations released)", h.MemUsedBytes, h.RegistryBytes)
	}
}

// TestAdmissionReserveIsFirstLease: the admission reserve covers the
// pipeline's first bytes, charged once. Under a limit that fits exactly
// the resident dataset and one reserve, a sort taking less than the
// reserve (sortSQL on tpcr-small: 41,344 bytes) runs, buffered and
// streamed; a request that fails before its pipeline runs (a statement
// that does not plan) gives the reserve back itself. Either way the
// gauge ends at the resident bytes.
func TestAdmissionReserveIsFirstLease(t *testing.T) {
	reg := preloaded(exec.NewDataset("tpcr-small", "", tpcr.Schema(), tpcr.Generate(tpcr.DefaultGenSpec())))
	s, c, done := newTestServer(t, Config{Datasets: reg, MemLimitBytes: reg.ResidentBytes() + DefaultQueryReserveBytes})
	defer done()
	settled := func(what string) {
		t.Helper()
		if used, resident := s.acct.Used(), reg.ResidentBytes(); used != resident {
			t.Fatalf("%s: accountant at %d bytes, want the %d resident", what, used, resident)
		}
	}
	req := ExecuteRequest{SQL: sortSQL, Dataset: "tpcr-small"}
	if _, err := c.Execute(req); err != nil {
		t.Fatalf("a sort smaller than the reserve: %v", err)
	}
	settled("after a buffered execute")
	st, err := c.ExecuteStream(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Collect(); err != nil {
		t.Fatalf("streamed: %v", err)
	}
	st.Close()
	settled("after a streamed execute")
	if status, _, _ := postExecuteRaw(t, c.BaseURL, ExecuteRequest{SQL: "select nothing from nowhere", Dataset: "tpcr-small"}); status != http.StatusBadRequest {
		t.Fatalf("status %d for a statement that does not plan, want 400", status)
	}
	settled("after a request whose pipeline never ran")
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
	h := health(t, c)
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
