package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// syntheticBlocks builds numBlocks blocks of n requests whose latencies
// jitter ±2% around base; slow scales the blocks it names. The
// reference kernel runs at its nominal time throughout: the machine is
// steady as far as the kernel can tell.
func syntheticBlocks(n int, base time.Duration, slow func(block int) float64) []block {
	return syntheticBlocksOn(n, base, slow, func(int) float64 { return 1 })
}

// syntheticBlocksOn is syntheticBlocks on a machine whose speed varies:
// machine scales both the requests and the reference kernel of a block.
func syntheticBlocksOn(n int, base time.Duration, slow, machine func(block int) float64) []block {
	rng := rand.New(rand.NewSource(7))
	blocks := make([]block, numBlocks)
	for b := range blocks {
		for i := 0; i < n; i++ {
			d := time.Duration(float64(base) * (0.98 + 0.04*rng.Float64()) * slow(b) * machine(b))
			blocks[b].latency = append(blocks[b].latency, d)
			blocks[b].first = append(blocks[b].first, d/2)
			blocks[b].elapsed += d
			blocks[b].rows += 10
		}
		blocks[b].sent = n
		for i := 0; i < 5; i++ {
			blocks[b].kernel = append(blocks[b].kernel, time.Duration(float64(refKernelNominal)*machine(b)))
		}
	}
	return blocks
}

func (e estimates) each() map[string]float64 {
	return map[string]float64{
		"throughput_rps": e.throughputRPS, "latency_p50_ms": e.latencyP50Ms,
		"first_row_p50_ms": e.firstRowP50Ms, "rows_per_s": e.rowsPerS,
	}
}

func relDiff(a, b float64) float64 { return math.Abs(a-b) / a }

func TestQuietEstimatorIgnoresInterference(t *testing.T) {
	quietRun, err := estimate(syntheticBlocks(50, time.Millisecond, func(int) float64 { return 1 }))
	if err != nil {
		t.Fatal(err)
	}
	// 12 of 30 blocks (40%) run 30% slower, as when a neighbour takes
	// the core for a while.
	noisy, err := estimate(syntheticBlocks(50, time.Millisecond, func(b int) float64 {
		if b%5 < 2 {
			return 1.3
		}
		return 1
	}))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range quietRun.each() {
		if d := relDiff(want, noisy.each()[name]); d >= 0.03 {
			t.Errorf("%s moved %.1f%% when 40%% of blocks slowed by 30%%; want < 3%%", name, 100*d)
		}
	}
}

func TestQuietEstimatorFollowsTheProgram(t *testing.T) {
	base, err := estimate(syntheticBlocks(50, time.Millisecond, func(int) float64 { return 1 }))
	if err != nil {
		t.Fatal(err)
	}
	slower, err := estimate(syntheticBlocks(50, time.Millisecond, func(int) float64 { return 1.1 }))
	if err != nil {
		t.Fatal(err)
	}
	for name, was := range base.each() {
		now := slower.each()[name]
		ratio := now / was
		if name == "throughput_rps" || name == "rows_per_s" {
			ratio = was / now
		}
		if math.Abs(ratio-1.1) > 0.005 {
			t.Errorf("%s moved by x%.4f under a uniform 10%% slow-down; want x1.1", name, ratio)
		}
	}
}

// A machine that slows — requests and reference kernel alike — must
// not move the estimates at all, however much of the run it covers:
// this is what the favourable tail alone cannot do.
func TestEstimatorNormalisesMachineSpeed(t *testing.T) {
	steady, err := estimate(syntheticBlocks(50, time.Millisecond, func(int) float64 { return 1 }))
	if err != nil {
		t.Fatal(err)
	}
	for name, machine := range map[string]func(int) float64{
		"whole run 25% slower": func(int) float64 { return 1.25 },
		"last two thirds 30% slower": func(b int) float64 {
			if b >= numBlocks/3 {
				return 1.3
			}
			return 1
		},
	} {
		got, err := estimate(syntheticBlocksOn(50, time.Millisecond, func(int) float64 { return 1 }, machine))
		if err != nil {
			t.Fatal(err)
		}
		for metric, want := range steady.each() {
			if d := relDiff(want, got.each()[metric]); d >= 0.005 {
				t.Errorf("%s: %s moved %.2f%%; want < 0.5%%", name, metric, 100*d)
			}
		}
	}
}

func TestEstimatorRefusesThinData(t *testing.T) {
	blocks := syntheticBlocks(50, time.Millisecond, func(int) float64 { return 1 })
	if _, err := estimate(blocks[:numBlocks-1]); err == nil || !strings.Contains(err.Error(), "blocks") {
		t.Errorf("estimate over %d blocks: err = %v; want a too-few-blocks error", numBlocks-1, err)
	}
	thin := syntheticBlocks(minBlockRequests-1, time.Millisecond, func(int) float64 { return 1 })
	if _, err := estimate(thin); err == nil || !strings.Contains(err.Error(), "successful requests") {
		t.Errorf("estimate over blocks of %d requests: err = %v; want a too-few-requests error", minBlockRequests-1, err)
	}
	// Failed requests leave no sample, so they thin a block too.
	few := blocks[4].latency
	blocks[4].latency = few[:minBlockRequests-1]
	if _, err := estimate(blocks); err == nil {
		t.Error("estimate accepted a block with fewer successful requests than the minimum")
	}
	blocks[4].latency, blocks[9].kernel = few, nil
	if _, err := estimate(blocks); err == nil || !strings.Contains(err.Error(), "reference-kernel") {
		t.Errorf("estimate over a block without a reference-kernel run: err = %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	got := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	want := [3]float64{3.5, 13.5, 31.0}
	if got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}
