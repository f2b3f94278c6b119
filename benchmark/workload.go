package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"orderopt/internal/server"
	"orderopt/internal/tpcr"
)

// workload is one served traffic shape. Every workload is one
// closed-loop client over keep-alive loopback HTTP against a server
// built like `planserverd -workers 1`; they differ in which layers of
// the request own its time (see README.md for the stage budgets).
type workload struct {
	name     string
	endpoint string // "/plan" or "/execute"
	sql      string
	dataset  string // /execute only
	stream   bool   // "stream": true — chunked NDJSON
	// novel appends a never-repeating `limit k` to sql so every request
	// is structurally new to both planner caches.
	novel bool
	// source is the "source" every response must carry: the proof that
	// the workload takes the planner path it claims.
	source string
	// warmup is the fixed warm-up request count (≥ 2 s of work on the
	// reference box; plan_novel's fills and overflows both planner
	// caches), traced the fixed request count of a -trace run.
	warmup int
	traced int
}

const (
	topkSQL      = "select * from orders, customer where o_custkey = c_custkey order by o_orderkey limit 10"
	orderflowSQL = "select * from customer, orders, lineitem where l_orderkey = o_orderkey and o_custkey = c_custkey order by o_orderkey"
)

// Why each workload exists — which layers it stresses and which it
// leaves idle — is in BENCHMARK.json in a line and in README.md in full.
var workloads = []workload{
	{
		name:     "plan_novel",
		endpoint: "/plan", sql: tpcr.Query8SQL, novel: true, source: "cold",
		warmup: 1500, traced: 200,
	},
	{
		name:     "topk_hot",
		endpoint: "/execute", sql: topkSQL, dataset: "tpcr-large", source: "cachehit",
		warmup: 2000, traced: 300,
	},
	{
		name:     "q8_repeat",
		endpoint: "/execute", sql: tpcr.Query8SQL, dataset: "tpcr-mid", source: "cachehit",
		warmup: 80, traced: 60,
	},
	{
		name:     "stream_orderflow",
		endpoint: "/execute", sql: orderflowSQL, dataset: "tpcr-large", stream: true, source: "cachehit",
		warmup: 60, traced: 30,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// limitSpace is the size of the limit-k space novel statements draw
// from: far above the requests any run sends, so k never repeats.
const limitSpace = 1 << 20

// statements is the seeded statement sequence of one run. Repeating
// workloads yield their one statement forever; a novel workload yields
// sql + " limit k" with k walking an affine bijection of
// [1, limitSpace] whose offset and odd stride come from the seed —
// the same seed gives the same sequence, and no k repeats within a run.
type statements struct {
	w            *workload
	offset, step int
	i            int
}

func newStatements(w *workload, seed int64) *statements {
	rng := rand.New(rand.NewSource(seed))
	return &statements{w: w, offset: rng.Intn(limitSpace), step: rng.Intn(limitSpace/2)*2 + 1}
}

func (s *statements) next() string {
	if !s.w.novel {
		return s.w.sql
	}
	k := 1 + (s.offset+s.i*s.step)%limitSpace
	s.i++
	return s.w.sql + " limit " + strconv.Itoa(k)
}

// executeRequest is the /execute request of sql with the server's
// default options (row cap, chunk size, DOP), as the workload sends it.
func (w *workload) executeRequest(sql string) server.ExecuteRequest {
	return server.ExecuteRequest{SQL: sql, Dataset: w.dataset, Stream: w.stream}
}

// body renders the JSON request body for sql.
func (w *workload) body(sql string) []byte {
	var v any = server.PlanRequest{SQL: sql}
	if w.endpoint == "/execute" {
		v = w.executeRequest(sql)
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain strings and bools always marshal
	}
	return b
}

// wire renders the complete HTTP/1.1 request for sql: the exact bytes
// the timed client writes, and all the server ever sees of the workload.
func (w *workload) wire(sql string) []byte {
	b := w.body(sql)
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		w.endpoint, len(b))
	return append([]byte(head), b...)
}
