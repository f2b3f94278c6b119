package exec

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"orderopt/internal/freelist"
)

// TestJoinEmitAllocsAmortized pins a spine's per-row allocation
// behavior: output rows, its pieces concatenated or the live-column
// layout, are carved from chunked slabs, so a long stream costs one heap
// allocation per ~2k rows, not one per row.
func TestJoinEmitAllocsAmortized(t *testing.T) {
	pieces := []Row{{0, 10, 20, 30}, {40, 50}}
	for name, c := range map[string]struct {
		out  []fusedEq
		want Row
	}{
		"wide": {nil, Row{0, 10, 20, 30, 40, 50}},
		"live": {[]fusedEq{{piece: 0, col: 3}, {piece: 0, col: 1}, {piece: 1, col: 0}}, Row{30, 10, 40}},
	} {
		cur := cursor{spine: spine{fusedOut: c.out}, pieces: pieces}
		avg := testing.AllocsPerRun(4000, func() {
			row, ok, err := cur.emit()
			if !ok || err != nil || !slices.Equal(row, c.want) {
				t.Fatalf("%s: emitted %v, want %v", name, row, c.want)
			}
		})
		if avg > 0.1 {
			t.Fatalf("%s: a spine's emit averages %.3f allocs/row, want amortized < 0.1", name, avg)
		}
	}
}

// TestRowAllocRetention: carved rows stay valid and independent after
// arbitrarily many further carves — with window 0 chunks are never
// recycled, so operators may retain emitted rows (hash builds, sort
// runs).
func TestRowAllocRetention(t *testing.T) {
	var al rowAlloc
	const n = 10000
	kept := make([]Row, n)
	for i := 0; i < n; i++ {
		r, _ := al.carve(3)
		r[0], r[1], r[2] = int64(i), int64(i+1), int64(i+2)
		kept[i] = r
	}
	for i, r := range kept {
		if r[0] != int64(i) || r[1] != int64(i+1) || r[2] != int64(i+2) {
			t.Fatalf("row %d corrupted: %v", i, r)
		}
	}
	// Rows never alias: writing one must not touch its neighbors.
	kept[0][0] = -1
	if kept[1][0] != 1 {
		t.Fatal("adjacent carved rows alias")
	}
}

// TestRowAllocWindow pins the ring: a carved row keeps its values until
// window more rows have been carved and is reused at exactly that carve;
// a stream shorter than the window allocates the one 4 KiB chunk an
// unbounded allocator would; a long stream stops allocating once a
// chunk holds window rows; and a carve of another width starts a fresh
// chunk, leaving the rows of the old one alone.
func TestRowAllocWindow(t *testing.T) {
	const window, width = 100, 3
	carve := func(al *rowAlloc, i int) Row {
		r, _ := al.carve(width)
		r[0], r[1], r[2] = int64(i), int64(-i), int64(i*7)
		return r
	}
	al := rowAlloc{window: window}
	var rows []Row
	for i := 0; i < 20*window; i++ {
		rows = append(rows, carve(&al, i))
		for j := max(0, i-window+1); j <= i; j++ {
			if r := rows[j]; r[0] != int64(j) || r[1] != int64(-j) || r[2] != int64(j*7) {
				t.Fatalf("after carve %d: row %d, carved %d rows ago, reads %v", i, j, i-j, r)
			}
		}
		if i >= window && rows[i-window][0] != int64(i) {
			t.Fatalf("carve %d did not reuse the row carved %d rows earlier", i, window)
		}
	}
	if len(al.chunk) != window*width {
		t.Fatalf("ring chunk holds %d int64s, want %d", len(al.chunk), window*width)
	}
	if avg := testing.AllocsPerRun(1000, func() { al.carve(width) }); avg != 0 {
		t.Fatalf("a full ring allocates %.3f times per carve, want 0", avg)
	}

	short := rowAlloc{window: 320}
	for i := 0; i < 10; i++ {
		carve(&short, i)
	}
	if len(short.chunk) != rowAllocChunkMin || short.grow != rowAllocChunkMin {
		t.Fatalf("10 rows into a 320-row window: chunk %d, grow %d; want one %d-int64 chunk",
			len(short.chunk), short.grow, rowAllocChunkMin)
	}

	first := carve(&short, 1)
	wide, _ := short.carve(width + 1)
	if len(short.chunk) == rowAllocChunkMin || &wide[0] != &short.chunk[0] {
		t.Fatal("a carve of a new width did not start a fresh chunk")
	}
	for i := 0; i < 2*320; i++ {
		short.carve(width + 1)
	}
	if first[0] != 1 || first[1] != -1 || first[2] != 7 {
		t.Fatalf("a row of the old width was overwritten by rows of the new one: %v", first)
	}
}

// TestScanNextDoesNotAllocate: the row path's base scan yields
// references into the backing rows — zero allocations per row.
func TestScanNextDoesNotAllocate(t *testing.T) {
	rows := make([]Row, 128)
	for i := range rows {
		rows[i] = Row{int64(i)}
	}
	s := NewScan(rows, nil).(*scan)
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		if _, ok, _ := s.Next(); !ok {
			s.pos = 0
		}
	})
	if avg != 0 {
		t.Fatalf("Scan.Next averages %.3f allocs/row, want 0", avg)
	}
}

// TestQ8ExecAllocBudget bounds what one warmed Q8 execution on tpcr-mid
// allocates, compile included: ≈ 87 KiB once the joins feeding the
// builds and the Sort carve from pooled chunks (Life.arena); ≈ 1 MiB
// when each execution allocated those chunks afresh, 2.4 MiB with the
// Sort run and build tables unpooled too, 10.7 MiB when every join
// concatenated whole rows and built a map. The least of 15 runs is held
// under 256 KiB, since a GC empties the pools and the run after it
// allocates its chunks again — where the pools keep what they are
// handed: under the race detector sync.Pool drops a random quarter of
// them, and only the median's 4 MiB bound applies.
func TestQ8ExecAllocBudget(t *testing.T) {
	ds, _ := TPCRLazyRegistry().Get("tpcr-mid")
	a, best := planServed(t, q8Served(t))
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rows, _, err := ds.Runner(a).Run(best)
		runtime.ReadMemStats(&after)
		if err != nil || len(rows) == 0 {
			t.Fatalf("%d rows, %v", len(rows), err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // warm-up: the resident build tables, the pools
	runs := make([]uint64, 15)
	for i := range runs {
		runs[i] = run()
	}
	slices.Sort(runs)
	least, median := runs[0], runs[len(runs)/2]
	t.Logf("one Q8 execution allocates %d KiB (least of %d; median %d, most %d)",
		least>>10, len(runs), median>>10, runs[len(runs)-1]>>10)
	if median >= 4<<20 {
		t.Errorf("one Q8 execution allocates %d KiB (median), want under 4 MiB", median>>10)
	}
	if least >= 256<<10 {
		t.Errorf("one Q8 execution allocates %d KiB, want under 256", least>>10)
	}
}

// TestPooledAllocIndependentOfGC: what a Q8 execution allocates does
// not depend on how often the collector runs. Its sort runs, build
// tables, drain buffer and row chunks are recycled through shared free
// lists, which any P can take from and which keep an object through a
// cycle. Per-P pools (sync.Pool) would not do: a Get cannot see what
// was Put on another P, so each GC that coincides with the goroutine
// changing Ps costs a fresh copy of every buffer.
//
// The measured runs force no collection. A runtime.GC issued while a
// cycle runs waits for that one and then runs its own, so the lists can
// age twice between two executions and drop every buffer a warm
// execution left them; the refill, about 1.4 MiB, would then be charged
// to the runs measured next. Lowering GOGC starts a cycle at once, so
// each regime is warmed up before it is measured.
func TestPooledAllocIndependentOfGC(t *testing.T) {
	ds, _ := TPCRLazyRegistry().Get("tpcr-mid")
	a, best := planServed(t, q8Served(t))
	perRun := func(n int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if rows, _, err := ds.Runner(a).Run(best); err != nil || len(rows) == 0 {
				t.Fatalf("%d rows, %v", len(rows), err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	perRun(4) // warm-up: the resident build tables, the lists
	calm := perRun(100)
	defer debug.SetGCPercent(debug.SetGCPercent(5))
	perRun(4)
	busy := perRun(100)
	t.Logf("one Q8 execution allocates %.1f KiB, %.1f KiB with a GC every few", calm/1024, busy/1024)
	if busy > calm*1.05 {
		t.Errorf("a Q8 execution allocates %.1f KiB under frequent GC, %.1f KiB otherwise: recycled buffers are lost to collections", busy/1024, calm/1024)
	}
}

// settledHeap reads the memory statistics once the free lists hold
// nothing idle: it collects until they have aged twice, which drops
// everything they held, and once more to free it. Otherwise an
// object an earlier test left in a list is on the heap in one reading
// and gone in the next.
func settledHeap(t *testing.T, m *runtime.MemStats) {
	t.Helper()
	start := freelist.Cycles()
	deadline := time.Now().Add(10 * time.Second)
	for freelist.Cycles() < start+2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d free-list cycles in 10 s of forced collections", freelist.Cycles()-start)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	runtime.ReadMemStats(m)
}
