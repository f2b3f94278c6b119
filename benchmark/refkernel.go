package main

import (
	"slices"
	"strconv"
	"time"
)

// The reference kernel is the benchmark's control measurement. The
// reference box is a two-vCPU VM on a shared host: whenever a neighbour
// loads the sibling hyperthread or the shared cache, every program on
// it slows by up to 30 %, for seconds to minutes at a time — longer than
// a run, so no statistic of one run's own timings can see past it. The
// kernel is a fixed piece of work of the same kind the server does
// (hash build and probe, row copy, sort, integer formatting; no
// allocation, ~100 KiB touched) that the driver runs between requests,
// every few milliseconds. What slows the server slows the kernel by
// nearly the same factor, so a timing divided by the kernel's time in
// the same block, times the kernel's nominal time, is the timing at
// nominal machine speed. Measured on the reference box over phases in
// which raw medians moved by 18–27 %, the normalised ones moved 3–6 %.

// refKernelNominal is the kernel's time on the reference box while its
// neighbours are quiet. It only fixes the unit: normalised timings read
// as reference-box milliseconds at quiet speed.
const refKernelNominal = 100 * time.Microsecond

// refKernelGap is the request time that must pass before the kernel
// runs again: its share of a run stays near 5 % whatever the request
// length, and a request longer than the gap gets one kernel run each.
const refKernelGap = 2500 * time.Microsecond

const (
	refRows  = 1024
	refWidth = 8
)

type refKernel struct {
	rows  [refRows][refWidth]int64
	index map[int64]int32
	wide  [refRows / 2][2 * refWidth]int64
	order []int32
	text  []byte
	sink  int
	// sinceLast is the request time accumulated since the last run.
	sinceLast time.Duration
}

func newRefKernel() *refKernel {
	k := &refKernel{index: make(map[int64]int32, refRows), order: make([]int32, refRows/2), text: make([]byte, 0, 1<<12)}
	x := uint64(7)
	for i := range k.rows {
		for j := range k.rows[i] {
			x = x*6364136223846793005 + 1442695040888963407
			k.rows[i][j] = int64(x >> 40)
		}
	}
	return k
}

// run does the fixed work once and returns how long it took.
func (k *refKernel) run() time.Duration {
	begin := time.Now()
	clear(k.index)
	for i := range k.rows[:refRows/2] {
		k.index[k.rows[i][0]] = int32(i)
	}
	hits := 0
	for i := range k.rows {
		if _, ok := k.index[k.rows[i][0]]; ok {
			hits++
		}
		if _, ok := k.index[k.rows[i][1]^k.rows[i][0]]; ok {
			hits++
		}
	}
	for i := range k.wide {
		copy(k.wide[i][:refWidth], k.rows[i][:])
		copy(k.wide[i][refWidth:], k.rows[refRows-1-i][:])
		k.order[i] = int32(i)
	}
	slices.SortFunc(k.order, func(a, b int32) int {
		switch va, vb := k.wide[a][3], k.wide[b][3]; {
		case va < vb:
			return -1
		case va > vb:
			return 1
		}
		return 0
	})
	k.text = k.text[:0]
	for _, i := range k.order[:24] {
		for _, v := range k.wide[i] {
			k.text = strconv.AppendInt(k.text, v, 10)
			k.text = append(k.text, ',')
		}
	}
	k.sink += hits + len(k.text)
	return time.Since(begin)
}

// due reports whether the kernel should run before the next request,
// given the time the previous request took.
func (k *refKernel) due(lastRequest time.Duration) bool {
	k.sinceLast += lastRequest
	if k.sinceLast < refKernelGap {
		return false
	}
	k.sinceLast = 0
	return true
}
