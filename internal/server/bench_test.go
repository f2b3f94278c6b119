package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"orderopt/internal/exec"
	"orderopt/internal/optimizer"
	"orderopt/internal/planner"
	"orderopt/internal/tpcr"
)

// In-process handler benchmarks: the four BENCHMARK.json request shapes
// through ServeHTTP into a discarding writer, against the server the
// benchmark driver builds (`planserverd -workers 1`). No socket, no
// client: what is left is decode, plan lookup, compile, execute and
// encode — the loop to profile a fixed per-request cost with, e.g.
//
//	go test -run '^$' -bench BenchmarkHandlerTopK -benchtime 3s -cpuprofile /tmp/topk.prof ./internal/server

// discardWriter is an http.ResponseWriter (and Flusher) that counts the
// body and drops it.
type discardWriter struct {
	header http.Header
	status int
	n      int64
}

func (d *discardWriter) Header() http.Header  { return d.header }
func (d *discardWriter) WriteHeader(code int) { d.status = code }
func (d *discardWriter) Flush()               {}
func (d *discardWriter) Write(b []byte) (int, error) {
	d.n += int64(len(b))
	return len(b), nil
}

func benchHandler(b *testing.B, path string, req any) {
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	// Two warm-up requests load the dataset and fill the planner caches
	// and the build table.
	benchHandlerSeq(b, path, 2, func(int) []byte { return body })
}

// benchHandlerSeq serves body(0), body(1), … through one server: warm
// requests untimed, then b.N timed. Each b.N round gets a fresh server
// and planner over the benchmark's one registry: body restarts at 0
// every round, and a fresh statement cache keeps BenchmarkHandlerPlanNovel's
// limits novel.
func benchHandlerSeq(b *testing.B, path string, warm int, body func(i int) []byte) {
	s := benchServer(b)
	dw := &discardWriter{header: http.Header{}}
	serve := func(i int) {
		r, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body(i)))
		if err != nil {
			b.Fatal(err)
		}
		if s.ServeHTTP(dw, r); dw.status != http.StatusOK {
			b.Fatalf("status %d", dw.status)
		}
	}
	for i := 0; i < warm; i++ {
		serve(i)
	}
	dw.n = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(warm + i)
	}
	b.ReportMetric(float64(dw.n)/float64(b.N), "bytes_out/op")
}

// benchRegistries holds one lazily loaded TPC-R registry per benchmark
// name: a benchmark generates its datasets once, not once per b.N round,
// so they stay out of its CPU profile.
var benchRegistries sync.Map

// benchServer is the server the benchmark driver builds, with a fresh
// planner over b's registry.
func benchServer(b *testing.B) *Server {
	cfg := planner.DefaultConfig(tpcr.Schema())
	cfg.Optimizer = optimizer.DefaultConfig(optimizer.ModeDFSM)
	cfg.Optimizer.MaxDOP = 1
	reg, _ := benchRegistries.LoadOrStore(b.Name(), exec.TPCRLazyRegistry())
	return New(Config{Planner: planner.New(cfg), Datasets: reg.(*exec.Registry), MaxTimeout: DefaultMaxTimeout, Workers: 1})
}

const (
	benchTopKSQL      = "select * from orders, customer where o_custkey = c_custkey order by o_orderkey limit 10"
	benchOrderflowSQL = "select * from customer, orders, lineitem where l_orderkey = o_orderkey and o_custkey = c_custkey order by o_orderkey"
)

func BenchmarkHandlerTopK(b *testing.B) {
	benchHandler(b, "/execute", ExecuteRequest{SQL: benchTopKSQL, Dataset: "tpcr-large"})
}

func BenchmarkHandlerStream(b *testing.B) {
	benchHandler(b, "/execute", ExecuteRequest{SQL: benchOrderflowSQL, Dataset: "tpcr-large", Stream: true})
}

// BenchmarkHandlerStreamWire is BenchmarkHandlerStream over a loopback
// socket: an httptest.Server in front of the handler and a client that
// reads the body raw. The server's listener counts its socket writes,
// the cost that BenchmarkHandlerStream's discardWriter leaves out;
// bytes_out/op is the body as the client reads it, so it equals
// BenchmarkHandlerStream's. Allocations include the client's.
func BenchmarkHandlerStreamWire(b *testing.B) {
	body, err := json.Marshal(ExecuteRequest{SQL: benchOrderflowSQL, Dataset: "tpcr-large", Stream: true})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(benchServer(b))
	ln := &countingListener{Listener: ts.Listener}
	ts.Listener = ln
	ts.Start()
	defer ts.Close()
	client := ts.Client()
	var n int64
	serve := func() {
		res, err := client.Post(ts.URL+"/execute", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		m, err := io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if err != nil || res.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %v", res.StatusCode, err)
		}
		n += m
	}
	// Two warm-up requests load the dataset, fill the planner caches and
	// the build table, and open the connection the timed ones reuse.
	serve()
	serve()
	n = 0
	ln.writes.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.ReportMetric(float64(ln.writes.Load())/float64(b.N), "writes/op")
	b.ReportMetric(float64(n)/float64(b.N), "bytes_out/op")
}

// countingListener counts the writes to every connection it accepts.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, writes: &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

func BenchmarkHandlerQ8(b *testing.B) {
	benchHandler(b, "/execute", ExecuteRequest{SQL: tpcr.Query8SQL, Dataset: "tpcr-mid"})
}

// BenchmarkHandlerQ8Analyze is BenchmarkHandlerQ8 with analyze set:
// the difference between the two is what timing every operator costs.
func BenchmarkHandlerQ8Analyze(b *testing.B) {
	benchHandler(b, "/execute", ExecuteRequest{SQL: tpcr.Query8SQL, Dataset: "tpcr-mid", Analyze: true})
}

func BenchmarkHandlerPlanHit(b *testing.B) {
	benchHandler(b, "/plan", PlanRequest{SQL: tpcr.Query8SQL})
}

// BenchmarkAppendRowsFrame is the rows frame writer alone on a 256-row
// frame: repeating as the order-flow stream does (six columns constant
// over runs of seven rows), with every value distinct, where the memo
// never pays, and served — the first frame of the order-flow stream on
// tpcr-large as the handler serves it, whose values are shorter than
// the synthetic cases'. served-pieces is that frame as the spine hands
// it to the stream: each row as its orders, customer and lineitem
// pieces, and low the pieces repeated from the row above.
func BenchmarkAppendRowsFrame(b *testing.B) {
	for _, c := range []struct {
		name string
		rows func(b *testing.B) []exec.Row
	}{
		{"repeating", func(*testing.B) []exec.Row { return orderFlowRows(256, 7) }},
		{"distinct", func(*testing.B) []exec.Row { return orderFlowRows(256, 1) }},
		{"served", func(b *testing.B) []exec.Row { rows, _ := servedOrderFlowRows(b, 256); return rows }},
	} {
		b.Run(c.name, func(b *testing.B) {
			rows := c.rows(b)
			benchFrame(b, len(rows), func(dst []byte) []byte { return AppendRowsFrame(dst, rows) })
		})
	}
	b.Run("served-pieces", func(b *testing.B) {
		pieces, lows := spinePieces(servedOrderFlowRows(b, 256))
		var f rowsFrame
		benchFrame(b, len(pieces), func(dst []byte) []byte {
			dst = f.begin(dst)
			for i, p := range pieces {
				dst = f.row(dst, p, lows[i])
			}
			return f.end(dst)
		})
	})
}

// benchFrame times appending one frame of n rows.
func benchFrame(b *testing.B, n int, frame func(dst []byte) []byte) {
	buf := frame(nil)
	b.SetBytes(int64(len(buf)))
	for b.Loop() {
		buf = frame(buf[:0])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}

// servedOrderFlowRows is the order-flow stream's first frame of n rows,
// served by benchServer and decoded from the wire, and the widths of its
// pieces but the last: the runs of columns of one relation.
func servedOrderFlowRows(b *testing.B, n int) ([]exec.Row, []int) {
	body, err := json.Marshal(ExecuteRequest{SQL: benchOrderflowSQL, Dataset: "tpcr-large", Stream: true, ChunkRows: n})
	if err != nil {
		b.Fatal(err)
	}
	rec := httptest.NewRecorder()
	benchServer(b).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/execute", bytes.NewReader(body)))
	lines := bytes.SplitN(rec.Body.Bytes(), []byte("\n"), 3) // header, first rows frame, the rest
	var h StreamHeader
	var fr StreamRows
	if rec.Code != http.StatusOK || len(lines) < 3 {
		b.Fatalf("status %d, body %.200q", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(lines[0], &h); err != nil {
		b.Fatal(err)
	}
	if err := json.Unmarshal(lines[1], &fr); err != nil || fr.Frame != FrameRows || len(fr.Rows) != n {
		b.Fatalf("first frame %.200q: %v", lines[1], err)
	}
	var widths []int
	for i, start := 1, 0; i < len(h.Columns); i++ {
		if rel, _, _ := strings.Cut(h.Columns[i], "."); !strings.HasPrefix(h.Columns[i-1], rel+".") {
			widths, start = append(widths, i-start), i
		}
	}
	return execRows(fr.Rows), widths
}

// BenchmarkHandlerPlanNovel is the plan_novel request: Q8 under a limit
// no earlier request used, so every call parses, analyzes, prepares the
// DFSM and runs the DP. The 1 500 warm-up requests fill both planner
// caches, so the timed loop evicts on every insert as a long-lived
// server does.
func BenchmarkHandlerPlanNovel(b *testing.B) {
	benchHandlerSeq(b, "/plan", 1500, func(i int) []byte {
		body, err := json.Marshal(PlanRequest{SQL: fmt.Sprintf("%s limit %d", tpcr.Query8SQL, i+1)})
		if err != nil {
			b.Fatal(err)
		}
		return body
	})
}

// BenchmarkDecodeRequest decodes the four BENCHMARK.json workloads'
// request bodies as the benchmark client renders them (json.Marshal of
// the request; plan_novel's statement carries a limit).
func BenchmarkDecodeRequest(b *testing.B) {
	for _, c := range []struct {
		name string
		req  any
	}{
		{"plan_novel", PlanRequest{SQL: tpcr.Query8SQL + " limit 123457"}},
		{"topk_hot", ExecuteRequest{SQL: benchTopKSQL, Dataset: "tpcr-large"}},
		{"q8_repeat", ExecuteRequest{SQL: tpcr.Query8SQL, Dataset: "tpcr-mid"}},
		{"stream_orderflow", ExecuteRequest{SQL: benchOrderflowSQL, Dataset: "tpcr-large", Stream: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			body, err := json.Marshal(c.req)
			if err != nil {
				b.Fatal(err)
			}
			var plan PlanRequest
			var exe ExecuteRequest
			v := any(&exe)
			if _, ok := c.req.(PlanRequest); ok {
				v = &plan
			}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if code, err := decodeRequest(body, false, v); code != 0 {
					b.Fatalf("%d %v", code, err)
				}
			}
		})
	}
}
