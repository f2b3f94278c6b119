package experiments

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"orderopt/internal/catalog"
	"orderopt/internal/exec"
	"orderopt/internal/faultinject"
	"orderopt/internal/optimizer"
	"orderopt/internal/planner"
	"orderopt/internal/server"
	"orderopt/internal/tpcr"
)

// The abort experiment is the serving layer's saturation story: one
// server, two client populations. "Victim" clients drive /execute
// pipelines that are deliberately broken — every compiled operator is
// wrapped with a fault-injected hang, so each victim query wedges on
// its first row and only its deadline (timeoutMs) unwedges it —
// while "healthy" clients hammer /plan at full closed-loop speed. The
// experiment runs the same load shape twice, faults off then faults
// on, and compares healthy planning QPS: the ratio is the isolation
// number, showing that a server full of hung, aborted pipelines still
// serves the traffic that isn't broken, and that every victim ends as
// a prompt typed 504 instead of a stuck connection.

// AbortSpec parameterizes the saturation/abort experiment.
type AbortSpec struct {
	// Workers is the number of healthy closed-loop /plan clients
	// (default 2×GOMAXPROCS, min 4).
	Workers int
	// Victims is the number of /execute clients driving faulted
	// pipelines (default 4).
	Victims int
	// Duration is how long each phase runs (default 1s).
	Duration time.Duration
	// TimeoutMs is the victims' per-request deadline (default 25).
	TimeoutMs int
}

func (s *AbortSpec) defaults() {
	if s.Workers == 0 {
		s.Workers = 2 * runtime.GOMAXPROCS(0)
		if s.Workers < 4 {
			s.Workers = 4
		}
	}
	if s.Victims == 0 {
		s.Victims = 4
	}
	if s.Duration == 0 {
		s.Duration = time.Second
	}
	if s.TimeoutMs == 0 {
		s.TimeoutMs = 25
	}
}

// AbortRow is one phase's measurement.
type AbortRow struct {
	Mode  string
	Phase string // healthy (no faults) or faulted
	// Faulted reports whether victim pipelines had hangs injected.
	Faulted bool
	Workers int
	Victims int
	Elapsed time.Duration

	// PlanQPS is the healthy clients' served planning throughput;
	// PlanErrors counts their non-shed failures (0 or the phase is
	// broken).
	PlanQPS    float64
	PlanShed   int64
	PlanErrors int64

	// Victim outcome counts: OK completions (healthy phase), 504
	// deadline aborts (faulted phase), anything else.
	VictimRequests int64
	VictimOK       int64
	VictimTimeouts int64
	VictimOther    int64
	// VictimMeanMs is the victims' mean request latency — in the
	// faulted phase it must sit near TimeoutMs, not near the healthy
	// execution time and not at infinity.
	VictimMeanMs float64
}

// victimSQL joins orders and lineitem with a top order — a pipeline
// with scans, a join and enough rows that a first-row hang wedges it
// for good.
const victimSQL = "select * from orders, lineitem where o_orderkey = l_orderkey order by o_orderkey"

// Abort runs the saturation/abort experiment: the same two-population
// load, one phase without faults and one with every victim pipeline
// hanging until its deadline.
func Abort(spec AbortSpec) ([]AbortRow, error) {
	spec.defaults()

	// One small dataset is enough — victims hang on their first row,
	// so data volume is irrelevant in the faulted phase and only sets
	// the healthy phase's execute cost.
	cat := tpcr.Schema()
	ds := exec.NewDataset("tpcr-small", "abort experiment fixture", cat, tpcr.Generate(tpcr.DefaultGenSpec()))

	var rows []AbortRow
	for _, faulted := range []bool{false, true} {
		row, err := abortPhase(spec, cat, ds, faulted)
		if err != nil {
			return nil, fmt.Errorf("abort (faulted=%v): %w", faulted, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func abortPhase(spec AbortSpec, cat *catalog.Catalog, ds *exec.Dataset, faulted bool) (AbortRow, error) {
	reg := exec.NewRegistry()
	reg.Register(ds)

	cfg := server.Config{
		Planner: planner.New(planner.Config{
			Catalog:   cat,
			Analyze:   planner.DefaultConfig(cat).Analyze,
			Optimizer: optimizer.DefaultConfig(optimizer.ModeDFSM),
		}),
		Datasets: reg,
	}
	if faulted {
		// Wedge every victim pipeline on its first row; only the
		// request deadline unblocks it. Healthy /plan traffic never
		// compiles a pipeline, so the hook cannot touch it.
		cfg.ExecHook = faultinject.Hook("*", faultinject.Fault{Kind: faultinject.HangAt, AtRow: 1})
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return AbortRow{}, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()

	conns := spec.Workers + spec.Victims
	client := &server.Client{
		BaseURL: "http://" + ln.Addr().String(),
		HTTPClient: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
		}},
	}
	// Warm the plan cache so the healthy population measures the
	// serving path, not first-touch DP.
	if _, err := client.Plan(tpcr.Query8SQL); err != nil {
		return AbortRow{}, fmt.Errorf("warming: %w", err)
	}

	var (
		planned    atomic.Int64
		planShed   atomic.Int64
		planErrs   atomic.Int64
		victimReq  atomic.Int64
		victimOK   atomic.Int64
		victim504  atomic.Int64
		victimElse atomic.Int64
		victimNs   atomic.Int64
		wg         sync.WaitGroup
	)
	ctx, cancel := context.WithTimeout(context.Background(), spec.Duration)
	defer cancel()

	for g := 0; g < spec.Workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				_, err := client.PlanContext(ctx, tpcr.Query8SQL)
				switch {
				case err == nil:
					planned.Add(1)
				case server.IsShed(err):
					planShed.Add(1)
				case ctx.Err() != nil: // phase over, request cut mid-flight
					return
				default:
					planErrs.Add(1)
				}
			}
		}()
	}
	for g := 0; g < spec.Victims; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := server.ExecuteRequest{
				SQL:       victimSQL,
				Dataset:   ds.Name,
				MaxRows:   1,
				TimeoutMs: spec.TimeoutMs,
			}
			for ctx.Err() == nil {
				begin := time.Now()
				_, err := client.ExecuteContext(ctx, req)
				victimNs.Add(time.Since(begin).Nanoseconds())
				victimReq.Add(1)
				var se *server.StatusError
				switch {
				case err == nil:
					victimOK.Add(1)
				case errors.As(err, &se) && se.Code == http.StatusGatewayTimeout:
					victim504.Add(1)
				case ctx.Err() != nil:
					victimReq.Add(-1) // phase over, request cut mid-flight
					return
				default:
					victimElse.Add(1)
				}
			}
		}()
	}

	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	phase := "healthy"
	if faulted {
		phase = "faulted"
	}
	row := AbortRow{
		Mode:           optimizer.ModeDFSM.String(),
		Phase:          phase,
		Faulted:        faulted,
		Workers:        spec.Workers,
		Victims:        spec.Victims,
		Elapsed:        elapsed,
		PlanQPS:        float64(planned.Load()) / elapsed.Seconds(),
		PlanShed:       planShed.Load(),
		PlanErrors:     planErrs.Load(),
		VictimRequests: victimReq.Load(),
		VictimOK:       victimOK.Load(),
		VictimTimeouts: victim504.Load(),
		VictimOther:    victimElse.Load(),
	}
	if n := victimReq.Load(); n > 0 {
		row.VictimMeanMs = float64(victimNs.Load()) / float64(n) / 1e6
	}
	return row, nil
}

// FormatAbort renders the saturation table plus the isolation ratio:
// healthy planning QPS with every victim pipeline hanging, relative to
// the same load with victims executing normally.
func FormatAbort(rows []AbortRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %8s %8s %10s %8s %9s %9s %8s %8s %8s %12s\n",
		"mode", "phase", "workers", "victims", "plan-qps", "shed", "plan-err",
		"vic-req", "vic-ok", "vic-504", "vic-oth", "vic-mean(ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-8s %8d %8d %10.0f %8d %9d %9d %8d %8d %8d %12.1f\n",
			r.Mode, r.Phase, r.Workers, r.Victims, r.PlanQPS, r.PlanShed, r.PlanErrors,
			r.VictimRequests, r.VictimOK, r.VictimTimeouts, r.VictimOther, r.VictimMeanMs)
	}
	var healthy, faulted float64
	for _, r := range rows {
		if r.Faulted {
			faulted = r.PlanQPS
		} else {
			healthy = r.PlanQPS
		}
	}
	if healthy > 0 && faulted > 0 {
		fmt.Fprintf(&b, "faulted/healthy plan-QPS ratio = %.2fx (isolation: hung+aborted pipelines vs clean execution)\n",
			faulted/healthy)
	}
	return b.String()
}
