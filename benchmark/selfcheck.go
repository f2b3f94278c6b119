package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// manifest is the part of BENCHMARK.json the self-check reads: the
// workloads to run and each end-to-end metric's direction and bound.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// selfCheck applies the acceptance test a benchmark has to pass before
// it can judge anything else: two sets of runs of this same binary,
// interleaved A B A B so both see the same machine, one fresh process
// per run, the same seeds in both sets. For every end-to-end metric of
// every workload it prints both medians, how much worse B's is than A's
// (negative: better), the spread of A (interquartile range over median,
// as Python's statistics.quantiles(n=4) cuts it) and the bound. A
// difference beyond the bound, or a spread beyond it for any metric but
// setup_s, fails the check.
func selfCheck(seconds, runs int, outDir string) error {
	if runs < 3 {
		return fmt.Errorf("-runs %d: two sets need at least 3 runs each", runs)
	}
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("selfcheck: 2 sets x %d runs x %d workloads, %d s measured per run, seeds 1..%d\n",
		runs, len(man.Workloads), seconds, runs)
	failed := false
	for _, w := range man.Workloads {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for seed := 1; seed <= runs; seed++ {
			for _, set := range sets {
				out, err := runOnce(self, w.Name, seed, seconds, outDir)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
				for name, m := range out.Metrics {
					set[name] = append(set[name], m.Value)
				}
			}
		}
		fmt.Printf("\n%s\n  %-18s %14s %14s %9s %9s %7s\n", w.Name, "metric", "median A", "median B", "B worse", "spread A", "bound")
		for _, m := range man.EndToEnd {
			a, b := quartiles(sets[0][m.Name]), quartiles(sets[1][m.Name])
			worse := (b[1] - a[1]) / a[1]
			if m.Better == "higher" {
				worse = -worse
			}
			spread := (a[2] - a[0]) / a[1]
			verdict := "ok"
			if worse > m.Bound || (m.Name != "setup_s" && spread > m.Bound) {
				verdict, failed = "FAIL", true
			}
			fmt.Printf("  %-18s %14.4f %14.4f %+8.2f%% %8.2f%% %6.0f%%  %s\n",
				m.Name, a[1], b[1], 100*worse, 100*spread, 100*m.Bound, verdict)
		}
	}
	if failed {
		return fmt.Errorf("two sets of runs of the same binary disagree beyond the benchmark's bounds")
	}
	return nil
}

// runOnce runs one untraced run in a fresh process and decodes the JSON
// object on the last line of its stdout.
func runOnce(self, workload string, seed, seconds int, outDir string) (*outcome, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds), "-out", outDir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var out outcome
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return nil, fmt.Errorf("decoding result line: %w", err)
	}
	if !out.Correct {
		return nil, fmt.Errorf("run reported %d failed of %d", out.Failed, out.Attempted)
	}
	return &out, nil
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(v, n=4) (the default "exclusive" method).
func quartiles(v []float64) [3]float64 {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	n := len(d)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = int(math.Max(1, math.Min(float64(j), float64(n-1))))
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}
