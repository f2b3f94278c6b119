package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortInput returns n three-column rows: column 0 has the given number
// of distinct values, column 1 two, column 2 is the row's position (so
// stability is checkable), shuffled by a fixed seed.
func sortInput(n, distinct int) []Row {
	rng := rand.New(rand.NewSource(int64(n)*31 + int64(distinct)))
	slab := make([]int64, 3*n)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = slab[3*i : 3*i+3 : 3*i+3]
		rows[i][0] = int64(rng.Intn(distinct))
		rows[i][1] = int64(rng.Intn(2))
		rows[i][2] = int64(i)
	}
	return rows
}

// spanInput is sortInput with column 0 drawn from [lo, hi], both ends
// present, so the key span is exactly hi-lo+1 buckets.
func spanInput(n int, lo, hi int64) []Row {
	rows := sortInput(n, 2)
	rng := rand.New(rand.NewSource(lo ^ hi))
	for _, r := range rows {
		r[0] = lo + rng.Int63n(hi-lo+1)
	}
	rows[0][0], rows[n-1][0] = hi, lo
	return rows
}

// checkSortRows fails unless sortRows puts in into the stable sort's
// permutation — the same rows at the same positions as
// slices.SortStableFunc — once with its own scratch and once through
// sc, shared across calls like a pooled Sort's; re-sorting the result
// must be the identity, and sc must not be left pinning a row.
func checkSortRows(t testing.TB, name string, in []Row, keys []int, sc *sortScratch) {
	t.Helper()
	want := slices.Clone(in)
	slices.SortStableFunc(want, func(a, b Row) int { return compareByKeys(a, b, keys) })
	for _, scratch := range []*sortScratch{nil, sc} {
		got := slices.Clone(in)
		for pass := 0; pass < 2; pass++ { // the second pass sorts what is sorted
			sortRows(got, keys, scratch)
			for i := range want {
				if &got[i][0] != &want[i][0] {
					t.Fatalf("%s keys %v pass %d: position %d holds input row %d, the stable sort puts row %d there",
						name, keys, pass, i, got[i][2], want[i][2])
				}
			}
		}
	}
	for _, r := range sc.tmp[:cap(sc.tmp)] {
		if r != nil {
			t.Fatalf("%s keys %v: the sort scratch still references a row", name, keys)
		}
	}
}

// TestSortRowsMatchesStableSort: the kernel is a stable sort — on one
// key, on two and on none, with few, many and all-distinct keys, on
// sorted, reversed and empty input, on key spans on both sides of the
// counting sort's 4n+16 bound, on negative keys and on a span that
// overflows int64 — by comparison with the standard library's.
func TestSortRowsMatchesStableSort(t *testing.T) {
	const n = 500
	reversed := sortInput(n, n)
	sort.Slice(reversed, func(i, j int) bool { return reversed[i][0] > reversed[j][0] })
	extreme := sortInput(n, 7)
	ends := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for _, r := range extreme {
		r[0] = ends[r[0]]
	}
	inputs := []struct {
		name  string
		rows  []Row
		dense bool // the counting sort's domain on column 0
	}{
		{"empty", nil, true},
		{"one", sortInput(1, 1), true},
		{"constant", sortInput(300, 1), true},
		{"few", sortInput(2000, 7), true},
		{"many", sortInput(2000, 597), true},
		{"distinct", sortInput(2000, 1<<40), false},
		{"reversed", reversed, true},
		{"span4n+16", spanInput(n, -1000, -1000+4*n+15), true},
		{"span4n+17", spanInput(n, -1000, -1000+4*n+16), false},
		{"negative", spanInput(n, -60, 40), true},
		{"extreme", extreme, false},
	}
	sc := &sortScratch{}
	for _, in := range inputs {
		if _, _, dense := keySpan(in.rows, 0); dense != in.dense {
			t.Fatalf("%s: keySpan dense = %v, want %v", in.name, dense, in.dense)
		}
		for _, keys := range [][]int{{0}, {0, 1}, {1, 0}, {1}, {}} {
			checkSortRows(t, in.name, in.rows, keys, sc)
		}
	}
}

// FuzzSortRows holds sortRows to slices.SortStableFunc on arbitrary
// rows: each byte pair is one row, its first byte the leading key
// shifted left by shift bits (so dense, sparse and overflowing spans
// all occur), its second one of three values of column 1.
func FuzzSortRows(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0, 3, 1, 0, 2, 2, 2}, uint8(0), uint8(1))
	f.Add([]byte{200, 1, 7, 0, 7, 1, 100, 0}, uint8(40), uint8(0))
	f.Add([]byte{128, 0, 1, 1, 0, 2, 127, 0, 128, 1}, uint8(63), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, shift, keySet uint8) {
		rows := make([]Row, len(data)/2)
		for i := range rows {
			rows[i] = Row{int64(int8(data[2*i])) << (shift % 64), int64(data[2*i+1] % 3), int64(i)}
		}
		keys := [][]int{{0}, {0, 1}, {1, 0}, {1}}[keySet%4]
		checkSortRows(t, "fuzz", rows, keys, &sortScratch{})
	})
}

// BenchmarkSortRows is the sort kernel on Q8's shape: 8 000 rows with 1,
// 597 (Q8's distinct o_orderdate values on tpcr-mid) and 8 000 distinct
// leading keys, on one key column and on two, through one reused
// scratch as a pooled Sort runs it. The dense cases take the counting
// sort; each one's sparse twin (keys times 2^20) takes the pdqsort
// fallback.
func BenchmarkSortRows(b *testing.B) {
	const n = 8000
	for _, distinct := range []int{1, 597, n} {
		for _, keys := range [][]int{{0}, {0, 1}} {
			for _, sparse := range []bool{false, true} {
				name := fmt.Sprintf("distinct%d/keys%d", distinct, len(keys))
				if sparse {
					name += "/sparse"
				}
				b.Run(name, func(b *testing.B) {
					in := sortInput(n, distinct)
					if distinct == 1 {
						// A constant key is sorted input; make the kernel work.
						in[0][0] = 1
					}
					if sparse {
						for _, r := range in {
							r[0] <<= 20
						}
					}
					if _, _, dense := keySpan(in, 0); dense == sparse {
						b.Fatalf("keySpan dense = %v on the sparse=%v input", dense, sparse)
					}
					buf := make([]Row, n)
					sc := &sortScratch{}
					for b.Loop() {
						copy(buf, in)
						sortRows(buf, keys, sc)
					}
					if !SatisfiesOrdering(buf, keys) {
						b.Fatal("output not sorted")
					}
				})
			}
		}
	}
}
