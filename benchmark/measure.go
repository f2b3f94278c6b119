package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The measured phase is cut into numBlocks consecutive blocks of equal
// request count, and every end-to-end timing is estimated from the
// per-block values, each normalised by the reference kernel's time in
// the same block (see refkernel.go and estimate). Fewer blocks or
// thinner blocks than these are an error, never a silent fallback to a
// plain mean.
const (
	numBlocks        = 30
	minBlockRequests = 10
)

// block is one slice of the measured phase.
type block struct {
	// elapsed is the block's wall time without its reference-kernel runs.
	elapsed time.Duration
	sent    int
	rows    int64 // result rows delivered by the requests that succeeded
	// latency and first hold one sample per request that succeeded: a
	// failed request is missing, not a fast sample.
	latency, first []time.Duration
	// kernel holds the reference kernel's times within the block.
	kernel []time.Duration
}

// estimates are the end-to-end timing metrics, at nominal machine speed.
type estimates struct {
	throughputRPS float64
	latencyP50Ms  float64
	firstRowP50Ms float64
	rowsPerS      float64
}

// quiet returns the value at the 25th percentile from the favourable
// end of the per-block values: the eighth-best of 30. A burst on a
// shared machine (a neighbour's spike, a preemption) only ever slows a
// block, while program-level jitter (GC, allocation) occurs inside every
// block, so the favourable side filters the machine and keeps the
// program. The quartile, not a more extreme order statistic: once the
// reference kernel has taken out the uniform slow-downs, what is left
// errs both ways, and over ten runs per workload on the reference box
// the quartile spread 2–3 % where the third-best spread 2–7 %.
func quiet(perBlock []float64, higherIsBetter bool) float64 {
	v := append([]float64(nil), perBlock...)
	sort.Float64s(v)
	i := int(math.Ceil(0.25*float64(len(v)))) - 1
	if higherIsBetter {
		i = len(v) - 1 - i
	}
	return v[i]
}

// estimate reduces the measured phase's blocks to the end-to-end timing
// metrics. Each block's values are first brought to nominal machine
// speed with the mean of the block's own reference-kernel times, and
// then reduced across blocks by quiet.
func estimate(blocks []block) (estimates, error) {
	if len(blocks) < numBlocks {
		return estimates{}, fmt.Errorf("%d blocks measured, the estimator needs %d", len(blocks), numBlocks)
	}
	rate := make([]float64, len(blocks))
	rowRate := make([]float64, len(blocks))
	latency := make([]float64, len(blocks))
	first := make([]float64, len(blocks))
	for i, b := range blocks {
		if len(b.latency) < minBlockRequests {
			return estimates{}, fmt.Errorf("block %d has %d successful requests, the estimator needs %d", i, len(b.latency), minBlockRequests)
		}
		if len(b.kernel) == 0 {
			return estimates{}, fmt.Errorf("block %d has no reference-kernel run", i)
		}
		slowdown := float64(mean(b.kernel)) / float64(refKernelNominal)
		rate[i] = float64(len(b.latency)) / b.elapsed.Seconds() * slowdown
		rowRate[i] = float64(b.rows) / b.elapsed.Seconds() * slowdown
		latency[i] = ms(median(b.latency)) / slowdown
		first[i] = ms(median(b.first)) / slowdown
	}
	return estimates{
		throughputRPS: quiet(rate, true),
		latencyP50Ms:  quiet(latency, false),
		firstRowP50Ms: quiet(first, false),
		rowsPerS:      quiet(rowRate, true),
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func mean(d []time.Duration) time.Duration {
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum / time.Duration(len(d))
}

func median(d []time.Duration) time.Duration { return percentile(d, 0.50) }

// percentile returns the nearest-rank p-quantile of d (not in place).
func percentile(d []time.Duration, p float64) time.Duration {
	s := slices.Sorted(slices.Values(d))
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// measured is the outcome of one measured phase.
type measured struct {
	blocks    []block
	blockSize int
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
	// Process-level deltas over the phase: bytes allocated (client and
	// server share the process; the thin client and the reference kernel
	// allocate next to nothing), GC cycles, CPU time, and the peak RSS
	// at its end.
	allocBytes uint64
	gcCycles   uint32
	cpu        time.Duration
	peakRSSKB  int64
	// stolen is the share of the VM's CPU time the hypervisor gave to
	// someone else during the phase: what the reference kernel cannot
	// correct for, reported so a disturbed run can be told from a slow
	// program.
	stolen float64
}

// render produces the n requests of a measured phase from the seeded
// statement sequence, before any clock starts.
func (e *env) render(stmts *statements, n int) [][]byte {
	reqs := make([][]byte, n)
	for i := range reqs {
		if i > 0 && !e.w.novel {
			reqs[i] = reqs[0]
			continue
		}
		reqs[i] = e.w.wire(stmts.next())
	}
	return reqs
}

// measure runs the closed loop: numBlocks blocks of len(reqs)/numBlocks
// requests, one after the other on the one connection, the reference
// kernel between requests every refKernelGap of request time and at
// every block's start. A request that fails in any way — transport,
// status, source, row count, trailer — counts in failed and contributes
// no latency sample.
func (e *env) measure(reqs [][]byte) measured {
	w := e.w
	blockSize := len(reqs) / numBlocks
	m := measured{blocks: make([]block, numBlocks), blockSize: blockSize}
	for b := range m.blocks {
		m.blocks[b].latency = make([]time.Duration, 0, blockSize)
		m.blocks[b].first = make([]time.Duration, 0, blockSize)
		m.blocks[b].kernel = make([]time.Duration, 0, blockSize)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var ruBefore, ruAfter syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ruBefore) // fails only on a bad who/pointer
	stealBefore, totalBefore := cpuJiffies()
	begin := time.Now()
	for b := range m.blocks {
		blk := &m.blocks[b]
		var inKernel, last time.Duration
		blockBegin := time.Now()
		for _, req := range reqs[b*blockSize : (b+1)*blockSize] {
			if e.kernel.due(last) || len(blk.kernel) == 0 {
				k := e.kernel.run()
				blk.kernel = append(blk.kernel, k)
				inKernel += k
			}
			blk.sent++
			sent := time.Now()
			r, err := e.client.do(req, w.stream)
			last = time.Since(sent)
			if err != nil {
				// The connection is in an unknown state; without a new one
				// every later request fails too, which the counts then show.
				_ = e.client.redial()
			} else {
				err = e.check(r)
			}
			if err != nil {
				m.failed++
				if m.firstErr == nil {
					m.firstErr = err
				}
				continue
			}
			first := r.firstByte
			if w.stream {
				first = r.firstFrame
			}
			blk.latency = append(blk.latency, r.total)
			blk.first = append(blk.first, first)
			blk.rows += e.wantRows
		}
		blk.elapsed = time.Since(blockBegin) - inKernel
		m.attempted += blk.sent
	}
	m.elapsed = time.Since(begin)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ruAfter)
	runtime.ReadMemStats(&after)
	m.allocBytes = after.TotalAlloc - before.TotalAlloc
	m.gcCycles = after.NumGC - before.NumGC
	m.cpu = cpuTime(ruAfter) - cpuTime(ruBefore)
	m.peakRSSKB = ruAfter.Maxrss
	if stealAfter, totalAfter := cpuJiffies(); totalAfter > totalBefore {
		m.stolen = float64(stealAfter-stealBefore) / float64(totalAfter-totalBefore)
	}
	return m
}

// cpuJiffies reads the machine-wide steal and total CPU time from the
// first line of /proc/stat (user nice system idle iowait irq softirq
// steal ...); both are 0 where there is no such file.
func cpuJiffies() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuTime is the user plus system CPU time of a getrusage sample.
func cpuTime(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// samples returns every latency sample of the phase, in request order.
func (m measured) samples() []time.Duration {
	var all []time.Duration
	for _, b := range m.blocks {
		all = append(all, b.latency...)
	}
	return all
}
