package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"orderopt/internal/plan"
	"orderopt/internal/query"
)

// pass hands on its input's rows: an operator with its own work taken
// out.
type pass struct{ Iterator }

// meterChain is a scan over rows and depth-1 pass operators above it,
// each under its own stats wrapper when timing — the shape of a compiled
// pipeline with the operators' own work taken out, so what is left is
// the hand-off and the meter. Untimed, as under DisableTiming, there is
// no wrapper. The scan counts into its wrapper's entry.
func meterChain(rows []Row, depth int, timing bool) Iterator {
	st := &OpStats{}
	var it Iterator = &scan{rows: rows, st: st}
	for d := 0; d < depth; d++ {
		if d > 0 {
			it, st = pass{it}, &OpStats{}
		}
		if timing {
			it = &statsIter{in: it, st: st}
		}
	}
	return it
}

func meterRows(n int) []Row {
	slab := make([]int64, 2*n)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = slab[2*i : 2*i+2 : 2*i+2]
		rows[i][0] = int64(i)
	}
	return rows
}

// TestMeterClockPairs: past the warm-up, a stats wrapper reads the clock
// once per burst, not once per row, and hands every row out in order.
func TestMeterClockPairs(t *testing.T) {
	const n = 10_000
	it := meterChain(meterRows(n), 1, true).(*statsIter)
	out, err := collect(it)
	if err != nil || len(out) != n {
		t.Fatalf("collected %d rows, error %v; want %d", len(out), err, n)
	}
	for i, r := range out {
		if r[0] != int64(i) {
			t.Fatalf("row %d is %v: a burst handed rows out of order", i, r)
		}
	}
	if it.st.Rows != n {
		t.Errorf("Rows = %d, want %d", it.st.Rows, n)
	}
	if it.st.TimeNs <= 0 {
		t.Errorf("TimeNs = %d with timing on", it.st.TimeNs)
	}
	// Open, the warm-up calls, the bursts, and the one that only finds
	// the end of the stream.
	limit := uint32(meterWarmCalls + (n+meterBurstRows-1)/meterBurstRows + 2)
	if it.pairs > limit {
		t.Errorf("%d clock pairs for %d rows, want at most %d", it.pairs, n, limit)
	}
	t.Logf("%d rows, %d clock pairs", n, it.pairs)
}

// TestMeterShortStreamAllocatesNothing: a stream that ends inside the
// warm-up never allocates the burst buffer — the top-k pipelines' case.
func TestMeterShortStreamAllocatesNothing(t *testing.T) {
	it := meterChain(meterRows(meterWarmCalls-1), 1, true).(*statsIter)
	if out, err := collect(it); err != nil || len(out) != meterWarmCalls-1 {
		t.Fatalf("collected %d rows, error %v", len(out), err)
	}
	if it.burst != nil {
		t.Error("a stream shorter than the warm-up allocated a burst buffer")
	}
}

// failOnce passes its input through, except that the first pass fails
// at the at-th Next.
type failOnce struct {
	Iterator
	at, n int
	fired bool
}

func (f *failOnce) Open() error { f.n = 0; return f.Iterator.Open() }

func (f *failOnce) Next() (Row, bool, error) {
	if f.n++; f.n == f.at && !f.fired {
		f.fired = true
		return nil, false, errors.New("failOnce: injected")
	}
	return f.Iterator.Next()
}

// TestMeterReopenStartsClean: a wrapper whose burst ended in an error is
// reopened; nothing of the first pass — buffered rows, the error, the
// position — survives into the second.
func TestMeterReopenStartsClean(t *testing.T) {
	const n, at = 1000, 101
	st := &OpStats{}
	it := &statsIter{in: &failOnce{Iterator: &scan{rows: meterRows(n), st: st}, at: at}, st: st}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		row, ok, err := it.Next()
		if err != nil {
			if i != at-1 {
				t.Fatalf("the error at row %d arrived after %d rows", at, i)
			}
			break
		}
		if !ok || row[0] != int64(i) {
			t.Fatalf("row %d of the first pass: %v, ok=%v", i, row, ok)
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := collect(it)
	if err != nil || len(out) != n {
		t.Fatalf("second pass collected %d rows, error %v; want %d and none", len(out), err, n)
	}
	for i, r := range out {
		if r[0] != int64(i) {
			t.Fatalf("second pass row %d is %v", i, r)
		}
	}
	if want := int64(at - 1 + n); it.st.Rows != want {
		t.Errorf("Rows = %d over both passes, want %d", it.st.Rows, want)
	}
}

// TestMeterWrapperLayout: the wrapper holds its input, its entry, its
// warm-up and clock-pair counts and its burst, and nothing else (a
// compiled pipeline allocates one wrapper per timed operator per
// request).
func TestMeterWrapperLayout(t *testing.T) {
	if got := unsafe.Sizeof(statsIter{}); got != 40 {
		t.Errorf("statsIter is %d bytes, want 40", got)
	}
}

// wrappers counts the stats wrappers in the operator tree under it.
func wrappers(it Iterator) int {
	levels := func(sp spine) (n int) {
		for _, l := range sp.levels {
			if l.right != nil {
				n += wrappers(l.right)
			}
		}
		return n
	}
	switch o := it.(type) {
	case *statsIter:
		return 1 + wrappers(o.in)
	case *Sort:
		return wrappers(o.In)
	case *Limit:
		return wrappers(o.In)
	case *GroupSorted:
		return wrappers(o.In)
	case *GroupHash:
		return wrappers(o.In)
	case *spineIter:
		return wrappers(o.in) + levels(o.spine)
	case *Exchange:
		return levels(o.sp)
	}
	return 0
}

// TestUntimedCompilesNoWrapper: a runner with timing disabled compiles
// no stats wrapper anywhere, serial or under an exchange; a timing one
// does.
func TestUntimedCompilesNoWrapper(t *testing.T) {
	ds, _ := TPCRLazyRegistry().Get("tpcr-mid")
	plans := map[string]func() (*query.Analysis, *plan.Node){
		"q8":   func() (*query.Analysis, *plan.Node) { return planServed(t, q8Served(t)) },
		"topk": func() (*query.Analysis, *plan.Node) { return planServed(t, sqlGraph(t, topKSQL)) },
		"orderflow-dop4": func() (*query.Analysis, *plan.Node) {
			return planParallel(t, ds, sqlGraph(t, orderFlowSQL), 4)
		},
	}
	for name, planned := range plans {
		a, best := planned()
		for _, timing := range []bool{false, true} {
			r := ds.Runner(a)
			r.DisableTiming = !timing
			p, err := r.Compile(best)
			if err != nil {
				t.Fatal(err)
			}
			if n := wrappers(p.Root); (n > 0) != timing {
				t.Errorf("%s, timing %v: %d stats wrappers compiled", name, timing, n)
			}
		}
	}
}

// BenchmarkMeter is the meter's own bill: a pass-through chain of
// depth 1, 3 and 5 over 40 000 rows with operator timing on and off
// (no wrapper at all).
func BenchmarkMeter(b *testing.B) {
	rows := meterRows(40_000)
	for _, depth := range []int{1, 3, 5} {
		for _, timing := range []bool{false, true} {
			b.Run(fmt.Sprintf("depth%d/timing=%v", depth, timing), func(b *testing.B) {
				it := meterChain(rows, depth, timing)
				for b.Loop() {
					if err := it.Open(); err != nil {
						b.Fatal(err)
					}
					n := 0
					for {
						_, ok, err := it.Next()
						if err != nil {
							b.Fatal(err)
						}
						if !ok {
							break
						}
						n++
					}
					if n != len(rows) {
						b.Fatalf("drained %d rows, want %d", n, len(rows))
					}
					it.Close()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rows)), "ns/row")
			})
		}
	}
}

// hashBuildInput returns n two-column build rows over n/4 distinct keys
// (four rows a key, like lineitem under an order), shuffled: dense keys
// are 0..n/4-1 — hashView.build's direct-address form — and sparse keys are
// those times 1<<20, which takes the sorted-distinct-keys form and a
// binary search per probe.
func hashBuildInput(n int, sparse bool) []Row {
	rng := rand.New(rand.NewSource(int64(n)))
	slab := make([]int64, 2*n)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = slab[2*i : 2*i+2 : 2*i+2]
		rows[i][0] = int64(rng.Intn(n / 4))
		if sparse {
			rows[i][0] <<= 20
		}
		rows[i][1] = int64(i)
	}
	return rows
}

// BenchmarkHashBuild is the per-execution hash-join build, and a probe
// of every build key, at Q8's size on tpcr-mid and at 100 000 rows:
// the CSR table (buildHash) against the map[int64][]Row it replaced, on
// dense and on sparse keys — build and probe reported apart, so what
// the one representation costs where it is weakest (sparse keys: a sort
// to build, a binary search to probe) is a number.
func BenchmarkHashBuild(b *testing.B) {
	for _, n := range []int{8000, 100000} {
		for _, keys := range []string{"dense", "sparse"} {
			in := hashBuildInput(n, keys == "sparse")
			name := fmt.Sprintf("rows%d/%s/", n, keys)
			perRow := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
			}
			b.Run(name+"build/csr", func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					hv, err := buildHash(NewScan(in, nil), 0, nil)
					if err != nil || len(hv.rows) != n {
						b.Fatal(err)
					}
					hv.recycle() // as the join that built it does at Close
				}
				perRow(b)
			})
			b.Run(name+"build/map", func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					table := make(map[int64][]Row)
					if err := drainInto(NewScan(in, nil), func(row Row) error {
						table[row[0]] = append(table[row[0]], row)
						return nil
					}); err != nil || len(table) == 0 {
						b.Fatal(err)
					}
				}
				perRow(b)
			})
			hv, _ := buildHash(NewScan(in, nil), 0, nil)
			table := make(map[int64][]Row)
			for _, row := range in {
				table[row[0]] = append(table[row[0]], row)
			}
			found := 0
			b.Run(name+"probe/csr", func(b *testing.B) {
				for b.Loop() {
					found = 0
					for _, row := range in {
						found += len(hv.bucket(row[0]))
					}
				}
				perRow(b)
			})
			want := found
			b.Run(name+"probe/map", func(b *testing.B) {
				for b.Loop() {
					found = 0
					for _, row := range in {
						found += len(table[row[0]])
					}
				}
				perRow(b)
			})
			if found != want || found < n {
				b.Fatalf("probes found %d rows through the map, %d through the CSR table", found, want)
			}
		}
	}
}

// BenchmarkJoinEmit is a spine's per-row emit at the widths of Q8's
// first join (lineitem ++ part, 9 columns, 2 of them read above) and its
// last (25 columns, 1 read above): the pieces concatenated whole against
// the live layout.
func BenchmarkJoinEmit(b *testing.B) {
	const n = 8000
	for _, c := range []struct{ left, right, live int }{{5, 4, 2}, {22, 3, 1}} {
		pieces := []Row{make(Row, c.left), make(Row, c.right)}
		live := []fusedEq{{piece: 0, col: 0}, {piece: 0, col: 2}}[:c.live]
		for name, out := range map[string][]fusedEq{"wide": nil, "live": live} {
			b.Run(fmt.Sprintf("width%d/%s", c.left+c.right, name), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					cur := cursor{spine: spine{fusedOut: out}, pieces: pieces} // one spine's life: 8 000 rows
					for i := 0; i < n; i++ {
						if row, ok, _ := cur.emit(); !ok || len(row) == 0 {
							b.Fatal("no row")
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			})
		}
	}
}
