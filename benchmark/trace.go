package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"orderopt/internal/core"
	"orderopt/internal/exec"
	"orderopt/internal/optimizer"
	"orderopt/internal/order"
	"orderopt/internal/plan"
	"orderopt/internal/planner"
	"orderopt/internal/query"
	"orderopt/internal/server"
	"orderopt/internal/sqlparse"
)

// The traced run attributes a request's time to layers from the
// outside: for each request of the seeded sequence the driver itself
// calls the layers the server would call, in order, with a span around
// each call; then it times the same request through the in-process
// handler and over loopback. No file outside benchmark/ has a hook.
//
// Root spans per traced request (all share the request's id):
//
//	replay        the layers on the request's real path, as children
//	probe         layers the workload does not exercise per request (the
//	              cold planning path on a cache-hit workload, the planner
//	              hit path on plan_novel), so every per-layer metric is
//	              measured on every workload; not part of trace.coverage
//	server.handler  Server.ServeHTTP in-process into a discarding writer
//	http.loopback   the thin client over the wire
//	client.decode   the shipped server.Client decoding the captured body

// span is one timed interval. Start and End are nanoseconds since the
// trace began. A derived span's duration comes from a counter the layer
// keeps (core's preparation time, an operator's OpStats.TimeNs) rather
// than from clocks around a call; it is placed at its parent's start.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: a root span
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Start   int64  `json:"startNs"`
	End     int64  `json:"endNs"`
	Derived bool   `json:"derived,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
	req   int
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name})
	s := &t.spans[len(t.spans)-1]
	s.Start = int64(time.Since(t.t0))
	return s.ID
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// childrenTime sums the durations of id's direct children: the time on
// a request's path, without the gaps in which the driver reads counters.
func (t *tracer) childrenTime(id int) time.Duration {
	var sum time.Duration
	for _, s := range t.spans[id:] {
		if s.Parent == id {
			sum += time.Duration(s.End - s.Start)
		}
	}
	return sum
}

// derive records a counter-derived child of parent lasting d.
func (t *tracer) derive(parent int, name string, d time.Duration) int {
	start := t.spans[parent-1].Start
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name,
		Start: start, End: start + int64(d), Derived: true})
	return len(t.spans)
}

// operatorKinds are the serial physical operators; exec.op.<kind>_ms is
// reported for each, 0 where the workload's plan has none.
var operatorKinds = []plan.Op{
	plan.TableScan, plan.IndexScan, plan.Sort, plan.MergeJoin, plan.HashJoin, plan.NestedLoopJoin,
	plan.GroupSorted, plan.GroupHash, plan.GroupClustered, plan.Limit,
}

// series collects one value per traced request under a metric name.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func (s series) median(name string) float64 {
	v := append([]float64(nil), s[name]...)
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	return v[(len(v)-1)/2]
}

type traced struct {
	attempted, failed int
	metrics           map[string]metric
	spans             []span
}

// harvest is what the traced run takes from its untraced phase: the
// planner and endpoint counters on either side of it.
type harvest struct {
	before, after *server.StatsResponse
	heapLiveBytes uint64
}

func (e *env) stats() (*server.StatsResponse, error) {
	return server.NewClient("http://" + e.addr).Stats()
}

// trace runs the fixed-count traced phase and assembles the per-layer
// metrics from it, from the untraced phase m that preceded it in this
// process, and from the counters h harvested around that phase.
func (e *env) trace(stmts *statements, m measured, h harvest) (*traced, error) {
	w := e.w
	t := &tracer{t0: time.Now()}
	vals := series{}
	out := &traced{}
	ctx := context.Background()
	var lastPrep *optimizer.Prepared
	var lastRun *optimizer.Result
	acct := exec.NewAccountant(0) // the server charges pipelines to one too
	cfg := plannerConfig()        // built once: it holds the catalog

	// cold runs the cold planning path — what Planner.prepareSQL and the
	// first plan() do — under parent, and returns the run's result.
	cold := func(parent int, sql string) (*optimizer.Prepared, *optimizer.Result, error) {
		id := t.begin(parent, "sqlparse.parse")
		stmt, err := sqlparse.Parse(sql)
		vals.add("sqlparse.parse_us", us(t.end(id)))
		if err != nil {
			return nil, nil, err
		}
		id = t.begin(parent, "sqlparse.bind")
		bq, err := sqlparse.Bind(stmt, cfg.Catalog)
		vals.add("sqlparse.bind_us", us(t.end(id)))
		if err != nil {
			return nil, nil, err
		}
		id = t.begin(parent, "query.analyze")
		a, err := query.Analyze(bq.Graph, cfg.Analyze)
		vals.add("query.analyze_us", us(t.end(id)))
		if err != nil {
			return nil, nil, err
		}
		id = t.begin(parent, "optimizer.prepare")
		prep, err := optimizer.Prepare(a, cfg.Optimizer)
		vals.add("optimizer.prepare_us", us(t.end(id)))
		if err != nil {
			return nil, nil, err
		}
		t.derive(id, "core.prep", prep.Stats().PrepTime)
		vals.add("core.prep_us", us(prep.Stats().PrepTime))
		id = t.begin(parent, "query.fingerprint")
		fingerprintSink = query.CanonicalFingerprint(bq.Graph.AppendCanonical(nil))
		vals.add("query.fingerprint_us", us(t.end(id)))

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		id = t.begin(parent, "optimizer.run")
		res, err := prep.Run()
		vals.add("optimizer.run_us", us(t.end(id)))
		runtime.ReadMemStats(&after)
		vals.add("optimizer.alloc_kb", float64(after.TotalAlloc-before.TotalAlloc)/1024)
		return prep, res, err
	}

	// hit runs the planner's hit path on a statement it has planned.
	hit := func(parent int, sql string) (planner.Planned, error) {
		id := t.begin(parent, "planner.hit")
		pd, _, err := e.srv.Planner().PlanQueryContext(ctx, sql)
		vals.add("planner.hit_ns", float64(t.end(id)))
		if err == nil && pd.Source != planner.SourceCacheHit {
			err = fmt.Errorf("planner hit path answered %q", pd.Source)
		}
		return pd, err
	}

	// execute runs the /execute layers after planning under parent.
	execute := func(parent int, pd planner.Planned) error {
		id := t.begin(parent, "exec.acquire")
		ds, unpin, err := e.data.Acquire(w.dataset)
		vals.add("exec.acquire_us", us(t.end(id)))
		if err != nil {
			return err
		}
		defer unpin()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		id = t.begin(parent, "exec.compile")
		runner := ds.Runner(pd.Origin.Analysis())
		runner.Accountant = acct
		runner.MaxDOP = 1
		pipe, err := runner.Compile(pd.Best)
		vals.add("exec.compile_us", us(t.end(id)))
		if err != nil {
			return err
		}

		var encode, firstChunk time.Duration
		var rowsOut int64
		enc := json.NewEncoder(io.Discard)
		encodeUnder := func(parent int, v any) error {
			id := t.begin(parent, "server.encode")
			err := enc.Encode(v)
			encode += t.end(id)
			return err
		}
		execID := t.begin(parent, "exec.execute")
		if w.stream {
			// Frames are encoded inside the sink, as the server does, so
			// the encode spans are children of exec.execute.
			frame := &server.StreamRows{Frame: server.FrameRows}
			if err := encodeUnder(execID, e.verifiedHeader); err != nil {
				return err
			}
			streamBegin := time.Now()
			err = pipe.StreamContext(ctx, exec.DefaultStreamChunk, func(rows []exec.Row) error {
				if rowsOut == 0 {
					firstChunk = time.Since(streamBegin)
				}
				frame.Rows = frame.Rows[:0]
				for _, r := range rows {
					frame.Rows = append(frame.Rows, r)
				}
				rowsOut += int64(len(rows))
				return encodeUnder(execID, frame)
			})
			if err == nil {
				err = encodeUnder(execID, &server.StreamTrailer{Frame: server.FrameTrailer, RowCount: rowsOut,
					RowsSorted: pipe.RowsSorted(), Operators: opsSnapshot(pipe)})
			}
			if err != nil {
				return err
			}
			vals.add("exec.execute_ms", ms(t.end(execID)-encode))
			runtime.ReadMemStats(&after)
		} else {
			rows, err := pipe.ExecuteContext(ctx)
			if err != nil {
				return err
			}
			vals.add("exec.execute_ms", ms(t.end(execID)))
			runtime.ReadMemStats(&after)
			rowsOut = int64(len(rows))
			resp := *e.verifiedExecute
			resp.Rows = nil
			for _, r := range rows[:min(len(rows), server.DefaultExecuteMaxRows)] {
				resp.Rows = append(resp.Rows, r)
			}
			resp.Operators = opsSnapshot(pipe)
			enc.SetIndent("", "  ")
			if err := encodeUnder(parent, &resp); err != nil {
				return err
			}
		}

		perKind := map[string]time.Duration{}
		next := 0
		deriveOps(t, execID, pd.Best, pipe.Ops, &next, perKind)
		for _, k := range operatorKinds {
			vals.add("exec.op."+k.String()+"_ms", ms(perKind[k.String()]))
		}
		vals.add("exec.first_chunk_ms", ms(firstChunk))
		vals.add("exec.rows_out", float64(rowsOut))
		vals.add("exec.rows_sorted", float64(pipe.RowsSorted()))
		vals.add("exec.alloc_kb", float64(after.TotalAlloc-before.TotalAlloc)/1024)
		vals.add("server.encode_ms", ms(encode))
		if rowsOut != e.wantRows {
			return fmt.Errorf("replayed pipeline produced %d rows, want %d", rowsOut, e.wantRows)
		}
		return nil
	}

	fail := func(what string, err error) {
		out.failed++
		fmt.Fprintf(os.Stderr, "benchmark: traced request %d: %s: %v\n", t.req, what, err)
	}

	// Per-layer timings are as measured, not brought to nominal machine
	// speed; the reference kernel runs once per traced request so its mean
	// (process.ref_kernel_us) says what the machine was like meanwhile.
	var kernelTimes []time.Duration
	for t.req = 1; t.req <= w.traced; t.req++ {
		out.attempted++
		kernelTimes = append(kernelTimes, e.kernel.run())
		sql := stmts.next()
		body := w.body(sql)

		// 1. The layers on the request's path.
		root := t.begin(0, "replay")
		id := t.begin(root, "server.decode")
		var err error
		if w.endpoint == "/plan" {
			err = json.Unmarshal(body, new(server.PlanRequest))
		} else {
			err = json.Unmarshal(body, new(server.ExecuteRequest))
		}
		vals.add("server.decode_us", us(t.end(id)))
		if err == nil && w.novel {
			if lastPrep, lastRun, err = cold(root, sql); err == nil {
				id = t.begin(root, "server.encode")
				enc := json.NewEncoder(io.Discard)
				enc.SetIndent("", "  ")
				err = enc.Encode(e.verifiedPlan)
				vals.add("server.encode_ms", ms(t.end(id)))
			}
		} else if err == nil {
			var pd planner.Planned
			if pd, err = hit(root, sql); err == nil {
				err = execute(root, pd)
			}
		}
		t.end(root)
		vals.add("replay_ms", ms(t.childrenTime(root)))
		if err != nil {
			fail("replay", err)
			continue
		}

		// 2. The same request through the handler, in-process.
		req, err := http.NewRequest(http.MethodPost, w.endpoint, bytes.NewReader(body))
		if err != nil {
			fail("handler", err)
			continue
		}
		dw := &discardWriter{header: http.Header{}}
		id = t.begin(0, "server.handler")
		e.srv.ServeHTTP(dw, req)
		vals.add("server.handler_ms", ms(t.end(id)))
		vals.add("server.bytes_out", float64(dw.n))
		if dw.status != http.StatusOK {
			fail("handler", fmt.Errorf("status %d", dw.status))
			continue
		}

		// 3. The layers off the request's path.
		root = t.begin(0, "probe")
		if w.novel {
			_, err = hit(root, sql)
		} else {
			lastPrep, lastRun, err = cold(root, sql)
		}
		t.end(root)
		if err != nil {
			fail("probe", err)
			continue
		}

		// 4. Over the wire, with the thin client; a novel workload needs
		// a statement the handler has not just cached.
		wireSQL := stmts.next()
		wire := w.wire(wireSQL)
		id = t.begin(0, "http.loopback")
		r, err := e.client.do(wire, w.stream)
		vals.add("loopback_ms", ms(t.end(id)))
		if err != nil {
			_ = e.client.redial() // a later request reports it if this fails
			fail("loopback", err)
			continue
		}
		if err := e.check(r); err != nil {
			fail("loopback", err)
			continue
		}

		// 5. The shipped client's decode of the body just captured.
		cl := &server.Client{BaseURL: "http://replayed", HTTPClient: &http.Client{Transport: replayTransport(e.client.body)}}
		id = t.begin(0, "client.decode")
		switch {
		case w.endpoint == "/plan":
			_, err = cl.Plan(wireSQL)
		case w.stream:
			var s *server.ExecuteStream
			if s, err = cl.ExecuteStream(w.executeRequest(wireSQL)); err == nil {
				_, err = s.Collect()
				s.Close()
			}
		default:
			_, err = cl.Execute(w.executeRequest(wireSQL))
		}
		vals.add("client.decode_ms", ms(t.end(id)))
		if err != nil {
			fail("client decode", err)
		}
	}
	if lastPrep == nil {
		return nil, errors.New("no traced request completed")
	}

	containsNs, inferNs := adtLookupCosts(lastPrep.Framework())
	st := lastPrep.Stats()
	untraced := m.samples()
	beforeP, afterP := h.before.Planner, h.after.Planner
	planCalls := float64(afterP.PlanCalls - beforeP.PlanCalls)
	prepares := float64(afterP.Prepares-beforeP.Prepares) + float64(afterP.PreparedHits-beforeP.PreparedHits)
	var shed int64
	for name, ep := range h.after.Endpoints {
		shed += ep.Shed - h.before.Endpoints[name].Shed
	}
	handler := vals.median("server.handler_ms")
	loopback := vals.median("loopback_ms")

	out.metrics = map[string]metric{
		"core.nfsm_states":             {float64(st.NFSMStates), "count"},
		"core.dfsm_states":             {float64(st.DFSMStates), "count"},
		"core.precomputed_bytes":       {float64(st.PrecomputedBytes), "bytes"},
		"core.contains_ns":             {containsNs, "ns"},
		"core.infer_ns":                {inferNs, "ns"},
		"optimizer.plans_generated":    {float64(lastRun.PlansGenerated), "count"},
		"optimizer.csg_cmp_pairs":      {float64(lastRun.CsgCmpPairs), "count"},
		"planner.plan_cache_hit_ratio": {float64(afterP.PlanCacheHits-beforeP.PlanCacheHits) / planCalls, "ratio"},
		"planner.prepared_hit_ratio":   {float64(afterP.PreparedHits-beforeP.PreparedHits) / prepares, "ratio"},
		"planner.cache_entries":        {float64(afterP.PlanCacheEntries + afterP.PreparedEntries), "count"},
		"server.shed":                  {float64(shed), "count"},
		"server.latency_mean_ms":       {ms(mean(untraced)), "ms"},
		"server.latency_p50_ms":        {ms(percentile(untraced, 0.50)), "ms"},
		"server.latency_p95_ms":        {ms(percentile(untraced, 0.95)), "ms"},
		"server.latency_p99_ms":        {ms(percentile(untraced, 0.99)), "ms"},
		"server.samples":               {float64(len(untraced)), "count"},
		"http.wire_ms":                 {loopback - handler, "ms"},
		"process.cpu_ms_per_req":       {ms(m.cpu) / float64(m.attempted), "ms"},
		"process.gc_cycles_per_s":      {float64(m.gcCycles) / m.elapsed.Seconds(), "1/s"},
		"process.heap_live_mb":         {float64(h.heapLiveBytes) / (1 << 20), "MiB"},
		"process.peak_rss_mb":          {float64(m.peakRSSKB) / 1024, "MiB"},
		"process.ref_kernel_us":        {us(mean(kernelTimes)), "us"},
		"process.steal_share":          {m.stolen, "ratio"},
		"trace.coverage":               {vals.median("replay_ms") / handler, "ratio"},
		"trace.overhead_ratio":         {ms(percentile(untraced, 0.50)) / loopback, "ratio"},
	}
	for name, unit := range map[string]string{
		"sqlparse.parse_us": "us", "sqlparse.bind_us": "us", "query.analyze_us": "us", "query.fingerprint_us": "us",
		"core.prep_us": "us", "optimizer.prepare_us": "us", "optimizer.run_us": "us", "optimizer.alloc_kb": "KiB",
		"planner.hit_ns":  "ns",
		"exec.acquire_us": "us", "exec.compile_us": "us", "exec.execute_ms": "ms", "exec.first_chunk_ms": "ms",
		"exec.rows_out": "count", "exec.rows_sorted": "count", "exec.alloc_kb": "KiB",
		"server.decode_us": "us", "server.handler_ms": "ms", "server.encode_ms": "ms", "server.bytes_out": "bytes", "client.decode_ms": "ms",
	} {
		out.metrics[name] = metric{vals.median(name), unit}
	}
	for _, k := range operatorKinds {
		name := "exec.op." + k.String() + "_ms"
		out.metrics[name] = metric{vals.median(name), "ms"}
	}
	out.spans = t.spans
	return out, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// fingerprintSink keeps the traced fingerprint computation alive.
var fingerprintSink uint64

// opsSnapshot copies a pipeline's operator counters, as the server does
// for its response.
func opsSnapshot(p *exec.Pipeline) []exec.OpStats {
	ops := make([]exec.OpStats, len(p.Ops))
	for i, op := range p.Ops {
		ops[i] = *op
	}
	return ops
}

// deriveOps walks the plan in preorder beside the pipeline's counters
// (one per plan node, same order), records a derived span per operator
// under parent and adds each operator's self time — its TimeNs, which
// includes its children, minus theirs — to perKind.
func deriveOps(t *tracer, parent int, n *plan.Node, ops []*exec.OpStats, next *int, perKind map[string]time.Duration) time.Duration {
	if n == nil || *next >= len(ops) {
		return 0
	}
	st := ops[*next]
	*next++
	total := time.Duration(st.TimeNs)
	id := t.derive(parent, "exec.op."+st.Op, total)
	children := deriveOps(t, id, n.Left, ops, next, perKind) + deriveOps(t, id, n.Right, ops, next, perKind)
	perKind[st.Op] += total - children
	return total
}

// adtLookupCosts times the framework's two O(1) operations — the
// paper's first claim — by sweeping every DFSM state against every
// interned ordering (Contains) and every FD handle (Infer).
func adtLookupCosts(fw *core.Framework) (containsNs, inferNs float64) {
	states := fw.DFSM().NumStates()
	orders := fw.Interner().Count()
	handles := fw.NumFDHandles()
	const sweeps = 200
	var hits int
	begin := time.Now()
	for range sweeps {
		for s := 0; s < states; s++ {
			for o := 0; o < orders; o++ {
				if fw.Contains(core.State(s), order.ID(o)) {
					hits++
				}
			}
		}
	}
	containsNs = float64(time.Since(begin)) / float64(sweeps*states*orders)
	begin = time.Now()
	for range sweeps {
		for s := 0; s < states; s++ {
			for h := 0; h < handles; h++ {
				hits += int(fw.Infer(core.State(s), core.FDHandle(h)))
			}
		}
	}
	inferNs = float64(time.Since(begin)) / float64(sweeps*states*handles)
	adtSink = hits
	return containsNs, inferNs
}

var adtSink int

// discardWriter is the in-process handler's response writer: it counts
// the bytes and keeps the status.
type discardWriter struct {
	header http.Header
	status int
	n      int64
}

func (d *discardWriter) Header() http.Header { return d.header }
func (d *discardWriter) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}
func (d *discardWriter) Write(b []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	d.n += int64(len(b))
	return len(b), nil
}
func (d *discardWriter) Flush() {}

// replayTransport answers every request with a captured response body,
// so the shipped client's decode can be timed without a second request.
type replayTransport []byte

func (b replayTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(b))}, nil
}
