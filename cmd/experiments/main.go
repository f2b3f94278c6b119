// Command experiments regenerates the paper's evaluation tables — §6.2
// (prep), §7 (q8), Figures 13 and 14 (fig13, fig14) — and the runtime
// claim built on them, the rows sorted and the time an order-aware plan
// saves at execution (exec, topk), one registered table at a time; -h
// lists them:
//
//	experiments                        # -table all: prep, q8, fig13, fig14
//	experiments -table fig13 -sizes 5,6 -extras 0,1 -seeds 2 -enumerator naive
//	experiments -table exec -runs 5 -datasets tpcr-mid
//
// Seven flags are shared by every table, each read by the tables it
// makes sense for (docs/benchmarks.md has the matrix). A flag left unset
// means the table's own default, which lives only in the table's Spec.
// Served throughput and latency are not measured here: that is the
// benchmark/ harness (make bench, see benchmark/README.md); the
// planner's and the executor's own timings are the root Benchmark*
// functions. Absolute numbers depend on the machine; the shape (who
// wins, by what factor, how factors grow with query size) is what
// reproduces the paper. Results are deterministic per seed set.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"orderopt/internal/experiments"
	"orderopt/internal/optimizer"
)

// options are the parsed shared flags; zero values mean "the table's
// default".
type options struct {
	sizes, extras []int
	seeds, runs   int
	enumerator    optimizer.Enumerator
	datasets      []string

	graphs []experiments.GraphRow // fig13 and fig14 share one sweep
}

// table is one registered experiment: what -h says about it (also the
// printed title) and how to run it into its formatted output.
type table struct {
	name, about string
	run         func(o *options) (string, error)
}

var tables = []table{
	{"prep", "§6.2: preparation step on TPC-R Query 8", func(*options) (string, error) {
		rows, err := experiments.PrepQ8()
		return experiments.FormatPrep(rows), err
	}},
	{"q8", "§7: plan generation for TPC-R Query 8", func(o *options) (string, error) {
		rows, err := experiments.Q8(o.runs)
		return experiments.FormatQ8(rows), err
	}},
	{"fig13", "Figure 13: plan generation for different join graphs", func(o *options) (string, error) {
		rows, err := o.sweep()
		return experiments.FormatFigure13(rows), err
	}},
	{"fig14", "Figure 14: memory consumption", func(o *options) (string, error) {
		rows, err := o.sweep()
		return experiments.FormatFigure14(rows), err
	}},
	{"exec", "End-to-end execution: DFSM vs Simmen vs order-oblivious plans", func(o *options) (string, error) {
		rows, err := experiments.Exec(experiments.ExecSpec{Datasets: o.datasets, Runs: o.runs})
		return experiments.FormatExec(rows), err
	}},
	{"topk", "Top-k execution: order-satisfying early-out vs hash + full sort", func(o *options) (string, error) {
		rows, err := experiments.Topk(experiments.TopkSpec{Datasets: o.datasets, Runs: o.runs})
		return experiments.FormatTopk(rows), err
	}},
}

// paperTables is -table all: the paper's own evaluation.
var paperTables = []string{"prep", "q8", "fig13", "fig14"}

// sweep runs the Figure 13/14 sweep once per invocation.
func (o *options) sweep() ([]experiments.GraphRow, error) {
	if o.graphs == nil {
		rows, err := experiments.Sweep(experiments.SweepSpec{
			Sizes: o.sizes, Extras: o.extras, Seeds: o.seeds, Enumerator: o.enumerator,
		})
		if err != nil {
			return nil, err
		}
		o.graphs = rows
	}
	return o.graphs, nil
}

func main() {
	var o options
	var names []string
	for _, t := range tables {
		names = append(names, t.name)
	}
	names = append(names, "all")
	name := flag.String("table", "all", "table to print: "+strings.Join(names, ", "))
	flag.Func("sizes", "relation counts (fig13, fig14)", parseList(&o.sizes, strconv.Atoi))
	flag.Func("extras", "extra edges beyond the chain, 0→n-1 edges, 1→n, 2→n+1 (fig13, fig14)", parseList(&o.extras, strconv.Atoi))
	flag.IntVar(&o.seeds, "seeds", 0, "queries averaged per configuration (fig13, fig14)")
	flag.Func("enumerator", "join enumeration of the sweep: dpccp or naive (fig13, fig14)", parseEnumerator(&o.enumerator))
	flag.IntVar(&o.runs, "runs", 0, "timed executions per measurement, minimum reported (q8, exec, topk)")
	flag.Func("datasets", "TPC-R datasets: tpcr-small, tpcr-mid, tpcr-large (exec, topk)", parseList(&o.datasets, func(s string) (string, error) { return s, nil }))
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintln(w, "experiments regenerates the paper's evaluation tables — see README.md and docs/benchmarks.md.\n\nTables:")
		for _, t := range tables {
			fmt.Fprintf(w, "  %-6s %s\n", t.name, t.about)
		}
		fmt.Fprintf(w, "  %-6s the paper's four: %s\n\nFlags (unset: the table's own default):\n", "all", strings.Join(paperTables, ", "))
		flag.PrintDefaults()
	}
	flag.Parse()

	run := []string{*name}
	if *name == "all" {
		run = paperTables
	}
	for _, n := range run {
		i := slices.IndexFunc(tables, func(t table) bool { return t.name == n })
		if i < 0 {
			die(fmt.Errorf("unknown table %q (want one of %s)", n, strings.Join(names, ", ")))
		}
		out, err := tables[i].run(&o)
		die(err)
		fmt.Printf("=== %s ===\n%s\n", tables[i].about, out)
	}
}

// parseList returns the setter of a comma-separated list option.
func parseList[T any](dst *[]T, parse func(string) (T, error)) func(string) error {
	return func(s string) error {
		*dst = nil
		for _, part := range strings.Split(s, ",") {
			if part = strings.TrimSpace(part); part == "" {
				continue
			}
			v, err := parse(part)
			if err != nil {
				return err
			}
			*dst = append(*dst, v)
		}
		return nil
	}
}

func parseEnumerator(dst *optimizer.Enumerator) func(string) error {
	return func(s string) error {
		switch s {
		case "dpccp":
			*dst = optimizer.EnumDPccp
		case "naive":
			*dst = optimizer.EnumNaive
		default:
			return fmt.Errorf("unknown enumerator %q (want dpccp or naive)", s)
		}
		return nil
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
