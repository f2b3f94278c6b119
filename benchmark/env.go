package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sort"
	"time"

	"orderopt/internal/exec"
	"orderopt/internal/optimizer"
	"orderopt/internal/planner"
	"orderopt/internal/query"
	"orderopt/internal/server"
	"orderopt/internal/sqlparse"
	"orderopt/internal/tpcr"
)

// env is one running server plus what the set-up learned about the
// workload on it: the thin client connected to it, what a correct timed
// response looks like, and the verified responses the traced run
// re-encodes.
type env struct {
	w       *workload
	srv     *server.Server
	data    *exec.Registry
	httpSrv *http.Server
	served  chan error // Serve's return value; receiving it joins the accept loop
	addr    string
	client  *thinClient
	kernel  *refKernel

	// wantRows is the "rowCount" every timed response must carry (1 for
	// /plan, which carries none: a plan is the one result delivered).
	wantRows int64
	// verified* are the decoded responses of the verification pass.
	verifiedPlan    *server.PlanResponse
	verifiedExecute *server.ExecuteResponse
	verifiedHeader  *server.StreamHeader

	// warmRate is the request rate the warm-up sustained; the measured
	// phase sizes its blocks from it. warmKernel holds the reference
	// kernel's times during the warm-up, which bring the set-up time to
	// nominal machine speed.
	warmRate   float64
	warmKernel []time.Duration
}

// plannerConfig is the planner of `planserverd -workers 1`: TPC-R
// catalog, DFSM mode, DPccp, auto strategy, default caches, serial
// plans (DOP scaling cannot repeat on two shared cores).
func plannerConfig() planner.Config {
	cfg := planner.DefaultConfig(tpcr.Schema())
	cfg.Optimizer = optimizer.DefaultConfig(optimizer.ModeDFSM)
	cfg.Optimizer.MaxDOP = 1
	return cfg
}

// startServer builds the server exactly as cmd/planserverd does with
// -workers 1 and serves it on a loopback port.
func startServer(w *workload) (*env, error) {
	data := exec.TPCRLazyRegistry()
	srv := server.New(server.Config{
		Planner:    planner.New(plannerConfig()),
		Datasets:   data,
		MaxTimeout: server.DefaultMaxTimeout,
		Workers:    1,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	e := &env{w: w, srv: srv, data: data, httpSrv: &http.Server{Handler: srv}, served: make(chan error, 1), addr: ln.Addr().String()}
	go func() { e.served <- e.httpSrv.Serve(ln) }()
	if e.client, err = dial(e.addr); err != nil {
		e.stop()
		return nil, err
	}
	return e, nil
}

// stop closes the client and the server and waits for the accept loop.
func (e *env) stop() {
	if e.client != nil {
		e.client.close()
	}
	e.httpSrv.Close()
	<-e.served
}

// setUp is one complete set-up: start the server, verify the workload's
// statements against an independent reference, warm up with the fixed
// request count (the reference kernel running in between as it does in
// the measured phase). refSkew is added to every reference checksum — 0
// outside the test that proves a wrong reference fails the run.
func setUp(w *workload, stmts *statements, kernel *refKernel, refSkew int64) (*env, error) {
	e, err := startServer(w)
	if err != nil {
		return nil, err
	}
	e.kernel = kernel
	if err := e.verify(stmts, refSkew); err != nil {
		e.stop()
		return nil, fmt.Errorf("verification: %w", err)
	}
	var inKernel, last time.Duration
	begin := time.Now()
	for i := 0; i < w.warmup; i++ {
		if kernel.due(last) || i == 0 {
			k := kernel.run()
			e.warmKernel = append(e.warmKernel, k)
			inKernel += k
		}
		r, err := e.client.do(w.wire(stmts.next()), w.stream)
		if err == nil {
			err = e.check(r)
		}
		if err != nil {
			e.stop()
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
		last = r.total
	}
	e.warmRate = float64(w.warmup) / (time.Since(begin) - inKernel).Seconds()
	return e, nil
}

// nominalSetup brings a set-up's wall time to nominal machine speed:
// without the warm-up's reference-kernel runs, scaled by their mean.
func (e *env) nominalSetup(wall time.Duration) time.Duration {
	k := mean(e.warmKernel)
	inKernel := k * time.Duration(len(e.warmKernel))
	return time.Duration(float64(wall-inKernel) * float64(refKernelNominal) / float64(k))
}

// check says whether a timed response is the one the workload expects.
func (e *env) check(r reply) error {
	switch {
	case r.status != http.StatusOK:
		return fmt.Errorf("status %d: %s", r.status, firstLine(e.client.body))
	case r.source != e.w.source:
		return fmt.Errorf("source %q, want %q", r.source, e.w.source)
	case e.w.endpoint == "/execute" && r.rows != e.wantRows:
		return fmt.Errorf("rowCount %d, want %d", r.rows, e.wantRows)
	case e.w.stream && (r.streamErr || r.frames < 3):
		return fmt.Errorf("stream ended badly after %d frames: %s", r.frames, lastLine(e.client.body))
	}
	return nil
}

func firstLine(b []byte) string {
	for i, c := range b {
		if c == '\n' || i == 200 {
			return string(b[:i])
		}
	}
	return string(b)
}

func lastLine(b []byte) string {
	for len(b) > 0 && b[len(b)-1] == '\n' {
		b = b[:len(b)-1]
	}
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] == '\n' {
			return firstLine(b[i+1:])
		}
	}
	return firstLine(b)
}

// verify sends each distinct statement once through the shipped
// server.Client with full decode and compares it with a reference
// computed by an independent route (a novel workload, whose statements
// are all distinct, verifies a sample of four). It leaves the expected
// row count and the decoded responses on e.
func (e *env) verify(stmts *statements, refSkew int64) error {
	cl := server.NewClient("http://" + e.addr)
	if e.w.endpoint == "/plan" {
		e.wantRows = 1
		for i := 0; i < 4; i++ {
			sql := stmts.next()
			got, err := cl.Plan(sql)
			if err != nil {
				return err
			}
			if err := checkPlan(sql, got); err != nil {
				return err
			}
			e.verifiedPlan = got
		}
		return nil
	}

	sql := stmts.next()
	ref, err := e.reference(sql)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	ref.checksumSkew = refSkew
	var got result
	if e.w.stream {
		s, err := cl.ExecuteStream(e.w.executeRequest(sql))
		if err != nil {
			return err
		}
		defer s.Close()
		rows, err := s.Collect()
		if err != nil {
			return err
		}
		e.verifiedHeader = s.Header()
		got = result{columns: s.Header().Columns, rows: rows, rowCount: s.Trailer().RowCount}
	} else {
		resp, err := cl.Execute(e.w.executeRequest(sql))
		if err != nil {
			return err
		}
		e.verifiedExecute = resp
		got = result{columns: resp.Columns, rows: resp.Rows, rowCount: resp.RowCount}
	}
	e.wantRows = ref.rowCount
	return ref.compare(got)
}

// checkPlan verifies one /plan response against the one-shot optimizer
// entry point run on the same statement outside the planner: same cost,
// a cold source, and the statement's own limit at the root.
func checkPlan(sql string, got *server.PlanResponse) error {
	a, err := analyze(sql, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		return err
	}
	res, err := optimizer.Optimize(a, plannerConfig().Optimizer)
	if err != nil {
		return err
	}
	switch {
	case got.Source != "cold":
		return fmt.Errorf("plan source %q, want cold", got.Source)
	case got.Cost != res.Best.Cost:
		return fmt.Errorf("plan cost %v, independent optimizer run says %v", got.Cost, res.Best.Cost)
	case got.Plan == nil || got.Plan.Op != "Limit" || got.Plan.Limit != a.Graph.Limit:
		return fmt.Errorf("plan root is not Limit k=%d", a.Graph.Limit)
	}
	return nil
}

func analyze(sql string, opt query.AnalyzeOptions) (*query.Analysis, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	bq, err := sqlparse.Bind(stmt, tpcr.Schema())
	if err != nil {
		return nil, err
	}
	return query.Analyze(bq.Graph, opt)
}

// result is a query result in wire terms: named columns, rows in
// delivery order (possibly a truncated prefix), and the full row count.
type result struct {
	columns  []string
	rows     [][]int64
	rowCount int64
	// orderBy names the ORDER BY columns (reference side only).
	orderBy      []string
	checksumSkew int64
}

// reference computes sql's result by a route that shares no planning
// decision with the served one: the order-oblivious configuration (no
// index orders, no merge joins, no ordered grouping — hash operators and
// one sort at the top) planned by the one-shot optimizer and run
// in-process. exec.BruteForce, the other oracle, is a filtered cartesian
// product and intractable on every dataset these workloads use.
func (e *env) reference(sql string) (result, error) {
	a, err := analyze(sql, query.AnalyzeOptions{})
	if err != nil {
		return result{}, err
	}
	cfg := optimizer.DefaultConfig(optimizer.ModeDFSM)
	cfg.DisableMergeJoin = true
	cfg.DisableOrderedGrouping = true
	res, err := optimizer.Optimize(a, cfg)
	if err != nil {
		return result{}, err
	}
	ds, unpin, err := e.data.Acquire(e.w.dataset)
	if err != nil {
		return result{}, err
	}
	defer unpin()
	rows, schema, err := ds.Runner(a).Run(res.Best)
	if err != nil {
		return result{}, err
	}
	g := a.Graph
	ref := result{rowCount: int64(len(rows)), rows: make([][]int64, len(rows))}
	for i, r := range rows {
		ref.rows[i] = r
	}
	for _, c := range schema {
		switch {
		case c.Rel >= 0:
			ref.columns = append(ref.columns, g.ColumnName(c))
		case c.Col >= 0 && c.Col < len(g.Aggregates):
			ref.columns = append(ref.columns, g.AggregateName(g.Aggregates[c.Col]))
		default:
			ref.columns = append(ref.columns, "count(*)")
		}
	}
	for _, c := range g.OrderBy {
		ref.orderBy = append(ref.orderBy, g.ColumnName(c))
	}
	return ref, nil
}

// compare checks got (the served result) against ref: full row count,
// physical ORDER BY sortedness of the delivered rows, and the multiset
// checksum of the delivered rows over name-sorted columns. A truncated
// delivery is compared with the same-length prefix of the reference,
// which its top sort put in ORDER BY order too — sound because the
// buffered workloads order by a key that is unique in their results.
func (ref result) compare(got result) error {
	if got.rowCount != ref.rowCount {
		return fmt.Errorf("row count %d, reference %d", got.rowCount, ref.rowCount)
	}
	if len(got.rows) > len(ref.rows) {
		return fmt.Errorf("%d rows delivered, reference has %d", len(got.rows), len(ref.rows))
	}
	for _, name := range ref.orderBy {
		if slices.Index(got.columns, name) < 0 {
			return fmt.Errorf("ORDER BY column %s not among delivered columns %v", name, got.columns)
		}
	}
	for i := 1; i < len(got.rows); i++ {
		for _, name := range ref.orderBy {
			k := slices.Index(got.columns, name)
			if got.rows[i-1][k] < got.rows[i][k] {
				break
			}
			if got.rows[i-1][k] > got.rows[i][k] {
				return fmt.Errorf("delivered rows not sorted: row %d has %s=%d after %d", i, name, got.rows[i][k], got.rows[i-1][k])
			}
		}
	}
	gotSum, err := canonicalChecksum(got.columns, got.rows)
	if err != nil {
		return err
	}
	refSum, err := canonicalChecksum(ref.columns, ref.rows[:len(got.rows)])
	if err != nil {
		return err
	}
	if gotSum != refSum+ref.checksumSkew {
		return fmt.Errorf("checksum %d over %d rows, reference %d", gotSum, len(got.rows), refSum+ref.checksumSkew)
	}
	return nil
}

// canonicalChecksum is exec.ChecksumRows over rows with their columns
// permuted into name order, so results whose plans emit columns in
// different orders compare equal.
func canonicalChecksum(columns []string, rows [][]int64) (int64, error) {
	perm := make([]int, len(columns))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return columns[perm[a]] < columns[perm[b]] })
	for i := 1; i < len(perm); i++ {
		if columns[perm[i-1]] == columns[perm[i]] {
			return 0, errors.New("duplicate column name " + columns[perm[i]])
		}
	}
	canon := make([]exec.Row, len(rows))
	flat := make([]int64, len(rows)*len(columns))
	for i, r := range rows {
		if len(r) != len(columns) {
			return 0, fmt.Errorf("row %d has %d values for %d columns", i, len(r), len(columns))
		}
		canon[i] = flat[i*len(columns) : (i+1)*len(columns)]
		for j, p := range perm {
			canon[i][j] = r[p]
		}
	}
	return exec.ChecksumRows(canon), nil
}
