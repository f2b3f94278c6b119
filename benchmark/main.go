// Command benchmark is the repository's benchmark driver: in a fresh
// process it builds the planning/execution server in-process exactly as
// `planserverd -workers 1` does, serves it on a loopback port, and
// drives it with one closed-loop client over keep-alive HTTP.
//
//	benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	benchmark/run.sh --selfcheck
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics of a separate traced run; either way the last line of stdout
// is one JSON object and a readable table goes to stderr. README.md
// explains the workloads, the metrics and the quiet-block estimator.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// procStart approximates process start: the first set-up is timed from
// here, so runtime and package initialization count as set-up.
var procStart = time.Now()

// setUps is how many complete set-ups an untraced run performs; setup_s
// is their median, so one slow load does not decide it.
const setUps = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
	// refSkew corrupts the verification reference; tests only.
	refSkew int64
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the JSON object a run prints as its last line of stdout.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo records the conditions of a run beside its metrics.
type runInfo struct {
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Seconds       int     `json:"seconds"`
	Traced        bool    `json:"traced"`
	WarmupCount   int     `json:"warmupRequests"`
	BlockSize     int     `json:"blockRequests"`
	MeasuredCount int     `json:"measuredRequests"`
	TracedCount   int     `json:"tracedRequests,omitempty"`
	MeasuredSec   float64 `json:"measuredSeconds"`
	// StealShare is the share of the VM's CPU time the hypervisor took
	// away during the measured phase.
	StealShare float64 `json:"stealShare"`
	// Per block, in order, before normalisation: request rate, median
	// latency, and the reference kernel's mean time.
	BlockRPS       []float64 `json:"blockRps"`
	BlockLatencyMs []float64 `json:"blockLatencyMs"`
	BlockKernelUs  []float64 `json:"blockKernelUs"`
	GoVersion      string    `json:"goVersion"`
	NumCPU         int       `json:"nproc"`
	GoMaxProcs     int       `json:"gomaxprocs"`
}

// record is what a run leaves in the out directory.
type record struct {
	Info    runInfo `json:"info"`
	Outcome outcome `json:"outcome"`
	Spans   []span  `json:"spans,omitempty"`
}

func main() {
	var o options
	var trace int
	var selfcheck bool
	var runs int
	flag.StringVar(&o.workload, "workload", "", "workload to run: plan_novel, topk_hot, q8_repeat or stream_orderflow")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the statement sequence")
	flag.IntVar(&o.seconds, "seconds", 20, "target length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for run records and trace files")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run two interleaved sets of runs per workload and compare their medians with the bounds in BENCHMARK.json")
	flag.IntVar(&runs, "runs", 3, "runs per set and workload under -selfcheck")
	flag.Parse()
	o.trace = trace != 0

	if selfcheck {
		if err := selfCheck(o.seconds, runs, o.outDir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	rec, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := rec.write(o.outDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	rec.table(os.Stderr)
	line, err := json.Marshal(rec.Outcome)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rec.Outcome.Correct {
		os.Exit(1)
	}
}

// run performs one run of one workload in this process.
func run(o options) (*record, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds %d: need at least 1", o.seconds)
	}
	stmts := newStatements(w, o.seed)
	rec := &record{Info: runInfo{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		WarmupCount: w.warmup,
		GoVersion:   runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
	}}

	// Set-up, several times over when its time is reported: each is a
	// fresh server, dataset load, verification and fixed-count warm-up.
	n := setUps
	if o.trace {
		n = 1
	}
	kernel := newRefKernel()
	var e *env
	setupTimes := make([]time.Duration, n)
	for i := range setupTimes {
		begin := time.Now()
		if i == 0 {
			begin = procStart
		}
		if e != nil {
			e.stop()
		}
		if e, err = setUp(w, stmts, kernel, o.refSkew); err != nil {
			return nil, err
		}
		setupTimes[i] = e.nominalSetup(time.Since(begin))
	}
	defer e.stop()

	seconds := float64(o.seconds)
	if o.trace {
		// The traced run's untraced phase only feeds the harvested
		// counters and the overhead ratio; a quarter of the time does.
		seconds /= 4
	}
	blockSize := max(minBlockRequests, int(e.warmRate*seconds/numBlocks))
	var h harvest
	if o.trace {
		if h.before, err = e.stats(); err != nil {
			return nil, err
		}
	}
	m := e.measure(e.render(stmts, numBlocks*blockSize))
	rec.Info.BlockSize, rec.Info.MeasuredCount, rec.Info.MeasuredSec = blockSize, m.attempted, m.elapsed.Seconds()
	rec.Info.StealShare = m.stolen
	for _, b := range m.blocks {
		if len(b.latency) == 0 || len(b.kernel) == 0 {
			continue // estimate reports it
		}
		rec.Info.BlockRPS = append(rec.Info.BlockRPS, float64(len(b.latency))/b.elapsed.Seconds())
		rec.Info.BlockLatencyMs = append(rec.Info.BlockLatencyMs, ms(median(b.latency)))
		rec.Info.BlockKernelUs = append(rec.Info.BlockKernelUs, float64(mean(b.kernel))/1e3)
	}
	est, err := estimate(m.blocks)
	if err != nil {
		if m.firstErr != nil {
			err = fmt.Errorf("%w (first failed request: %v)", err, m.firstErr)
		}
		return nil, err
	}
	rec.Outcome = outcome{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed}
	if m.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d requests failed, first: %v\n", m.failed, m.attempted, m.firstErr)
	}

	if !o.trace {
		rec.Outcome.Metrics = map[string]metric{
			"setup_s":          {median(setupTimes).Seconds(), "s"},
			"throughput_rps":   {est.throughputRPS, "req/s"},
			"latency_p50_ms":   {est.latencyP50Ms, "ms"},
			"first_row_p50_ms": {est.firstRowP50Ms, "ms"},
			"rows_per_s":       {est.rowsPerS, "rows/s"},
			"alloc_kb_per_req": {float64(m.allocBytes) / 1024 / float64(m.attempted), "KiB"},
		}
		return rec, nil
	}

	if h.after, err = e.stats(); err != nil {
		return nil, err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	h.heapLiveBytes = mem.HeapAlloc
	tr, err := e.trace(stmts, m, h)
	if err != nil {
		return nil, err
	}
	rec.Info.TracedCount = w.traced
	rec.Outcome.Attempted += tr.attempted
	rec.Outcome.Failed += tr.failed
	rec.Outcome.Correct = rec.Outcome.Failed == 0
	rec.Outcome.Metrics = tr.metrics
	rec.Spans = tr.spans
	return rec, nil
}

// write stores the record as <out>/<workload>.run.json, or
// <workload>.trace.json for a traced run (which carries the spans).
func (r *record) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "run"
	if r.Info.Traced {
		kind = "trace"
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.Info.Workload+"."+kind+".json"), b, 0o644)
}

// table prints the run for people.
func (r *record) table(f *os.File) {
	i := r.Info
	fmt.Fprintf(f, "workload %s  seed %d  traced %v  %s  nproc %d  GOMAXPROCS %d\n",
		i.Workload, i.Seed, i.Traced, i.GoVersion, i.NumCPU, i.GoMaxProcs)
	fmt.Fprintf(f, "warm-up %d requests, measured %d = %d blocks x %d in %.2f s",
		i.WarmupCount, i.MeasuredCount, numBlocks, i.BlockSize, i.MeasuredSec)
	if i.Traced {
		fmt.Fprintf(f, ", traced %d requests", i.TracedCount)
	}
	fmt.Fprintf(f, "\nattempted %d  failed %d  correct %v\n", r.Outcome.Attempted, r.Outcome.Failed, r.Outcome.Correct)
	names := make([]string, 0, len(r.Outcome.Metrics))
	for name := range r.Outcome.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Outcome.Metrics[name]
		fmt.Fprintf(f, "  %-32s %16.4f %s\n", name, m.Value, m.Unit)
	}
}
