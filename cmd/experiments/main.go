// Command experiments regenerates the paper's evaluation tables and
// figures:
//
//	experiments -table prep    # §6.2: preparation on TPC-R Q8
//	experiments -table q8      # §7:   plan generation for Q8
//	experiments -table fig13   # Fig. 13: join-graph sweep (time/#plans)
//	experiments -table fig14   # Fig. 14: memory consumption
//	experiments -table enum    # DPccp vs naive join enumeration per shape
//	experiments -table large   # adaptive tier: exact vs linearized DP on
//	                           # large join graphs (time, plans, cost
//	                           # ratio where both run)
//	experiments -table exec    # end-to-end execution: DFSM vs Simmen vs
//	                           # order-oblivious runtimes, plus the
//	                           # parallel-scaling column (serial vs the
//	                           # best DOP up to -workers, checksum-
//	                           # verified)
//	experiments -table topk    # LIMIT-k runtime: the order-satisfying
//	                           # early-out pipeline vs the oblivious
//	                           # hash + full-sort plan, k in -topk-ks
//	experiments -table spill   # external-sort contrast: the sort-free
//	                           # dfsm plan vs the oblivious plan's top
//	                           # sort under a spill budget (fails unless
//	                           # only the oblivious plan spills)
//	experiments -table abort   # saturation/abort: healthy /plan QPS
//	                           # while fault-injected /execute pipelines
//	                           # hang until their deadline (make faults
//	                           # asserts the same workload)
//	experiments -table all     # the paper's four: prep, q8, fig13, fig14
//	                           # (the rest are opt-in: clique points run
//	                           # for seconds)
//
// The sweep is configurable: -sizes 5,6,7,8,9,10 -extras 0,1,2 -seeds 5,
// -enumerator dpccp|naive; the enum table via -enum-shapes and
// -enum-sizes. Served throughput and latency are not measured here:
// that is the benchmark/ harness (make bench, see benchmark/README.md).
// Absolute numbers depend on the machine; the shape (who wins, by what
// factor, how factors grow with query size) is what reproduces the
// paper. Results are deterministic per seed set.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"orderopt/internal/experiments"
	"orderopt/internal/optimizer"
	"orderopt/internal/querygen"
)

func main() {
	tables := []string{"prep", "q8", "fig13", "fig14", "enum", "large", "exec", "topk", "spill", "abort", "all"}
	table := flag.String("table", "all", "one of "+strings.Join(tables, ", "))
	sizes := flag.String("sizes", "5,6,7,8,9,10", "relation counts for the sweep")
	extras := flag.String("extras", "0,1,2", "extra edges beyond the chain (0→n-1 edges, 1→n, 2→n+1)")
	seeds := flag.Int("seeds", 5, "queries averaged per configuration")
	tested := flag.Bool("tested-selections", false, "add the optional O_T selection orders to the Q8 prep input")
	enumerator := flag.String("enumerator", "dpccp", "join enumeration for the fig13/fig14 sweep: dpccp or naive")
	enumShapes := flag.String("enum-shapes", "chain,star,cycle,clique,grid", "join-graph shapes for the enum table")
	enumSizes := flag.String("enum-sizes", "5,6,7", "relation counts for the enum table")
	enumSeeds := flag.Int("enum-seeds", 1, "queries averaged per enum configuration")
	abortDuration := flag.Duration("abort-duration", time.Second, "per-phase duration of the abort table")
	abortVictims := flag.Int("abort-victims", 4, "faulted /execute clients in the abort table")
	largeShapes := flag.String("large-shapes", "chain,star,cycle,clique,grid", "join-graph shapes for the large table")
	largeSizes := flag.String("large-sizes", "10,16,20,24,30", "relation counts for the large table")
	largeSeeds := flag.Int("large-seeds", 3, "queries averaged per large configuration")
	largeCompareMax := flag.Int("large-compare-max", 10, "largest n on which the exact tier also runs for the cost-ratio column")
	execDatasets := flag.String("exec-datasets", "tpcr-mid,tpcr-large", "TPC-R datasets for the exec and topk tables")
	topkKs := flag.String("topk-ks", "1,10,100", "LIMIT values for the topk table")
	execRuns := flag.Int("exec-runs", 3, "timed executions per exec measurement (minimum reported)")
	execQueries := flag.Int("exec-queries", 3, "generated grouped queries in the exec table")
	execRelations := flag.Int("exec-relations", 5, "relations per generated exec query")
	execRows := flag.Int("exec-rows", 48, "rows per table for generated exec data")
	workers := flag.Int("workers", 4, "max morsel workers for the exec table's parallel-scaling column (serial vs best DOP up to this; 1 disables)")
	spillDatasets := flag.String("spill-datasets", "tpcr-large,tpcr-xl", "TPC-R datasets for the spill table (tpcr-xl resolves outside the registry)")
	spillRuns := flag.Int("spill-runs", 5, "timed executions per spill measurement (minimum reported)")
	spillBytes := flag.Int64("spill-bytes", 256<<10, "external-sort budget in bytes for the spill table")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(),
			"experiments regenerates the paper's evaluation tables — see README.md and docs/benchmarks.md.")
		flag.PrintDefaults()
	}
	flag.Parse()

	var sweepEnum optimizer.Enumerator
	switch *enumerator {
	case "dpccp":
		sweepEnum = optimizer.EnumDPccp
	case "naive":
		sweepEnum = optimizer.EnumNaive
	default:
		die(fmt.Errorf("unknown enumerator %q", *enumerator))
	}

	if !slices.Contains(tables, *table) {
		die(fmt.Errorf("unknown table %q (want one of %s)", *table, strings.Join(tables, ", ")))
	}
	runPrep := *table == "prep" || *table == "all"
	runQ8 := *table == "q8" || *table == "all"
	runSweep := *table == "fig13" || *table == "fig14" || *table == "all"
	runEnum := *table == "enum"
	runLarge := *table == "large"
	runExec := *table == "exec"
	runTopk := *table == "topk"
	runSpill := *table == "spill"
	runAbort := *table == "abort"

	if runPrep {
		rows, err := experiments.PrepQ8(*tested)
		die(err)
		fmt.Println("=== §6.2: preparation step on TPC-R Query 8 ===")
		fmt.Print(experiments.FormatPrep(rows))
		fmt.Println()
	}
	if runQ8 {
		rows, err := experiments.Q8()
		die(err)
		fmt.Println("=== §7: plan generation for TPC-R Query 8 ===")
		fmt.Print(experiments.FormatQ8(rows))
		fmt.Println()
	}
	if runSweep {
		spec := experiments.SweepSpec{
			Sizes:      parseInts(*sizes),
			Extras:     parseInts(*extras),
			Seeds:      *seeds,
			Enumerator: sweepEnum,
		}
		rows, err := experiments.Sweep(spec)
		die(err)
		if *table == "fig13" || *table == "all" {
			fmt.Println("=== Figure 13: plan generation for different join graphs ===")
			fmt.Print(experiments.FormatFigure13(rows))
			fmt.Println()
		}
		if *table == "fig14" || *table == "all" {
			fmt.Println("=== Figure 14: memory consumption ===")
			fmt.Print(experiments.FormatFigure14(rows))
		}
	}
	if runEnum {
		var shapes []querygen.Shape
		for _, name := range strings.Split(*enumShapes, ",") {
			shape, err := querygen.ParseShape(strings.TrimSpace(name))
			die(err)
			shapes = append(shapes, shape)
		}
		rows, err := experiments.EnumSweep(experiments.EnumSweepSpec{
			Shapes: shapes,
			Sizes:  parseInts(*enumSizes),
			Seeds:  *enumSeeds,
		})
		die(err)
		fmt.Println("=== Join enumeration: naive DPsub vs DPccp (DFSM mode) ===")
		fmt.Print(experiments.FormatEnum(rows))
	}
	if runLarge {
		var shapes []querygen.Shape
		for _, name := range strings.Split(*largeShapes, ",") {
			shape, err := querygen.ParseShape(strings.TrimSpace(name))
			die(err)
			shapes = append(shapes, shape)
		}
		rows, err := experiments.Large(experiments.LargeSpec{
			Shapes:     shapes,
			Sizes:      parseInts(*largeSizes),
			Seeds:      *largeSeeds,
			CompareMax: *largeCompareMax,
			Mode:       optimizer.ModeDFSM,
		})
		die(err)
		fmt.Println("=== Adaptive large-query planning: exact vs linearized DP ===")
		fmt.Print(experiments.FormatLarge(rows))
	}
	if runExec {
		rows, err := experiments.Exec(experiments.ExecSpec{
			Datasets:          splitList(*execDatasets),
			Runs:              *execRuns,
			QuerygenQueries:   *execQueries,
			QuerygenRelations: *execRelations,
			QuerygenRows:      *execRows,
			Workers:           *workers,
		})
		die(err)
		fmt.Println("=== End-to-end execution: DFSM vs Simmen vs order-oblivious plans ===")
		fmt.Print(experiments.FormatExec(rows))
	}
	if runTopk {
		rows, err := experiments.Topk(experiments.TopkSpec{
			Datasets: splitList(*execDatasets),
			Ks:       parseInts(*topkKs),
			Runs:     *execRuns,
		})
		die(err)
		fmt.Println("=== Top-k execution: order-satisfying early-out vs hash + full sort ===")
		fmt.Print(experiments.FormatTopk(rows))
	}
	if runSpill {
		rows, err := experiments.Spill(experiments.SpillSpec{
			Datasets:   splitList(*spillDatasets),
			Runs:       *spillRuns,
			SpillBytes: *spillBytes,
		})
		die(err)
		fmt.Println("=== External-sort contrast: sort-free dfsm vs oblivious under a spill budget ===")
		fmt.Print(experiments.FormatSpill(rows))
	}
	if runAbort {
		fmt.Println("=== Saturation/abort: healthy planning QPS while faulted pipelines hang and time out ===")
		abortRows, err := experiments.Abort(experiments.AbortSpec{
			Mode:     optimizer.ModeDFSM,
			Victims:  *abortVictims,
			Duration: *abortDuration,
		})
		die(err)
		fmt.Print(experiments.FormatAbort(abortRows))
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		die(err)
		out = append(out, v)
	}
	return out
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
