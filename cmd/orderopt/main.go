// Command orderopt is the repo's one inspect-and-plan CLI: it builds
// the NFSM and DFSM for one of the paper's worked examples or for a SQL
// query against the TPC-R schema and prints them in the style of the
// paper's figures (optionally as Graphviz DOT); for SQL it first plans
// the query through the planner layer — the configuration planserverd
// serves — and prints the chosen plan with its plan-generation
// statistics.
//
// Usage:
//
//	orderopt -example intro      # Figures 1–2
//	orderopt -example running    # Figures 4–10 (§5's running example)
//	orderopt -example simple     # Figures 11–12 (§6.1 persons/jobs)
//	orderopt -example q8         # §6.2 TPC-R Query 8
//	orderopt -sql 'select ...'   # any SQL against the TPC-R schema:
//	                             # best plan, then its state machines
//	orderopt -sql "$(cat q.sql)" # ... read from a file
//	orderopt -example simple -pruning       # apply §5.7 pruning
//	orderopt -example running -dot          # DOT output (NFSM)
//
// The Simmen-vs-DFSM comparison of one query is experiments -table q8;
// planner throughput is BenchmarkPlannerThroughput.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"orderopt/internal/core"
	"orderopt/internal/nfsm"
	"orderopt/internal/order"
	"orderopt/internal/planner"
	"orderopt/internal/query"
	"orderopt/internal/tpcr"
)

func main() {
	example := flag.String("example", "", "worked example: intro, running, simple, q8")
	sql := flag.String("sql", "", "SQL query against the TPC-R schema (takes precedence over -example)")
	pruning := flag.Bool("pruning", false, "apply the §5.7 pruning techniques during preparation (works with -example and -sql)")
	dot := flag.Bool("dot", false, "emit the NFSM as Graphviz DOT instead of the state dumps")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(),
			"usage: orderopt [-example intro|running|simple|q8 | -sql 'select ...'] [flags] — plan SQL and inspect the order-optimization state machines; see README.md.")
		flag.PrintDefaults()
	}
	flag.Parse()

	opt := core.Options{Pruning: nfsm.NoPruning()}
	if *pruning {
		opt.Pruning = nfsm.AllPruning()
	}

	var fw *core.Framework
	var planned string
	var err error
	if *sql != "" {
		// SQL goes through the planner layer: the prepared query's
		// framework is exactly what the optimizer plans with.
		fw, planned, err = planSQL(*sql, opt.Pruning)
	} else {
		var b *core.Builder
		b, err = buildInput(*example)
		if err == nil {
			fw, err = b.Prepare(opt)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "orderopt:", err)
		os.Exit(1)
	}

	if *dot {
		fmt.Print(fw.NFSM().DOT())
		return
	}
	st := fw.Stats()
	fmt.Printf("preparation: NFSM %d states, DFSM %d states, %d B precomputed, %v\n\n",
		st.NFSMStates, st.DFSMStates, st.PrecomputedBytes, st.PrepTime)
	fmt.Print(planned)
	fmt.Print(fw.NFSM().Dump())
	fmt.Println()
	fmt.Print(fw.DFSM().Dump())
}

// planSQL runs a SQL query through the planner pipeline (parse → bind
// → analyze → prepare → plan) in the served configuration, with the
// given preparation pruning, and returns the prepared DFSM framework
// together with the rendered plan report.
func planSQL(sql string, pruning nfsm.Options) (*core.Framework, string, error) {
	cfg := planner.DefaultConfig(tpcr.Schema())
	cfg.Optimizer.CoreOptions.Pruning = pruning
	q, err := planner.New(cfg).Prepare(sql)
	if err != nil {
		return nil, "", err
	}
	res, err := q.Plan()
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	if n := len(q.Residual()); n > 0 {
		fmt.Fprintf(&b, "note: %d predicate(s) planned as generic filters:\n", n)
		for _, e := range q.Residual() {
			fmt.Fprintf(&b, "  %s\n", e)
		}
	}
	r := res.Result
	fmt.Fprintf(&b, "plan generation (%s strategy): %v, %d plans generated, %d retained, %.1f KB order memory\n",
		q.Prepared().Strategy(), r.PlanTime, r.PlansGenerated, r.PlansRetained, float64(r.OrderMemBytes)/1024)
	fmt.Fprintf(&b, "best plan (cost %.1f):\n%s\n", res.Cost, res.Best)
	return q.Prepared().Framework(), b.String(), nil
}

func buildInput(example string) (*core.Builder, error) {
	switch {
	case example == "intro":
		b := core.NewBuilder()
		bb, d := b.Attr("b"), b.Attr("d")
		b.AddProduced(b.OrderingOf("a", "b", "c"))
		b.AddFDSet(order.NewFDSet(order.NewFD(d, bb)))
		return b, nil

	case example == "running":
		b := core.NewBuilder()
		bb, c, d := b.Attr("b"), b.Attr("c"), b.Attr("d")
		b.AddProduced(b.OrderingOf("b"))
		b.AddProduced(b.OrderingOf("a", "b"))
		b.AddTested(b.OrderingOf("a", "b", "c"))
		b.AddFDSet(order.NewFDSet(order.NewFD(c, bb)))
		b.AddFDSet(order.NewFDSet(order.NewFD(d, bb)))
		return b, nil

	case example == "simple":
		b := core.NewBuilder()
		id, jobid := b.Attr("id"), b.Attr("jobid")
		b.AddProduced(b.OrderingOf("id"))
		b.AddProduced(b.OrderingOf("jobid"))
		b.AddProduced(b.OrderingOf("id", "name"))
		b.AddTested(b.OrderingOf("salary"))
		b.AddFDSet(order.NewFDSet(order.NewEquation(id, jobid)))
		return b, nil

	case example == "q8":
		_, g, err := tpcr.Query8Graph()
		if err != nil {
			return nil, err
		}
		a, err := query.Analyze(g, query.AnalyzeOptions{})
		if err != nil {
			return nil, err
		}
		return a.Builder, nil
	}
	return nil, fmt.Errorf("need -example {intro|running|simple|q8} or -sql (see -h)")
}
