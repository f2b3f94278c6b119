package exec

import (
	"runtime"
	"testing"
	"unsafe"

	"orderopt/internal/catalog"
	"orderopt/internal/query"
	"orderopt/internal/tpcr"
)

func TestTPCRRegistry(t *testing.T) {
	reg := TPCRLazyRegistry()
	names := reg.Names()
	if len(names) != 3 || names[0] != "tpcr-small" {
		t.Fatalf("names = %v", names)
	}
	def, ok := reg.Get("")
	if !ok || def.Name != "tpcr-small" {
		t.Fatalf("default dataset = %v, %v", def, ok)
	}
	if _, ok := reg.Get("nope"); ok {
		t.Fatal("unknown dataset must not resolve")
	}
	cat := tpcr.Schema()
	for _, name := range names {
		ds, ok := reg.Get(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if ds.TotalRows() == 0 {
			t.Fatalf("%s is empty", name)
		}
		// Every index view exists, is sorted on the index columns and
		// holds exactly its table's rows.
		shared := 0
		for table, byIndex := range ds.Views {
			ct, ok := cat.Table(table)
			if !ok {
				t.Fatalf("%s: indexed view for unknown table %s", name, table)
			}
			base := ds.Tables[table]
			for _, ix := range ct.Indexes {
				view, ok := byIndex[ix.Name]
				if !ok {
					t.Fatalf("%s: missing index view %s.%s", name, table, ix.Name)
				}
				keys := make([]int, len(ix.Columns))
				for i, col := range ix.Columns {
					keys[i] = ct.ColumnIndex(col)
				}
				if !SatisfiesOrdering(view, keys) {
					t.Fatalf("%s: index view %s.%s not sorted", name, table, ix.Name)
				}
				if len(view) != len(base) || ChecksumRows(view) != ChecksumRows(base) {
					t.Fatalf("%s: index view %s.%s is not its table's row multiset (%d rows, table %d)",
						name, table, ix.Name, len(view), len(base))
				}
				if &view[0][0] == &base[0][0] {
					shared++
				}
			}
		}
		// The generators emit every table in key order and lineitem
		// clustered on l_orderkey: only one TPC-R index (lineitem by
		// part) needs rows of its own.
		if shared != 5 {
			t.Errorf("%s: %d index views share their table's slab, want 5 of 6", name, shared)
		}
	}
}

func TestApplyStats(t *testing.T) {
	reg := TPCRLazyRegistry()
	ds, _ := reg.Get("tpcr-small")
	_, g, err := tpcr.Query8Graph()
	if err != nil {
		t.Fatal(err)
	}
	ds.ApplyStats(g)
	var lineitem *query.Relation
	for i := range g.Relations {
		if g.Relations[i].Table.Name == "lineitem" {
			lineitem = &g.Relations[i]
		}
	}
	if lineitem == nil {
		t.Fatal("no lineitem relation")
	}
	if got := lineitem.Table.Rows; got != int64(len(ds.Tables["lineitem"])) {
		t.Fatalf("lineitem rows = %d, want %d", got, len(ds.Tables["lineitem"]))
	}
	for _, c := range lineitem.Table.Columns {
		if c.Distinct < 1 || c.Distinct > lineitem.Table.Rows {
			t.Fatalf("restated distinct out of range: %+v", c)
		}
	}
}

// TestDatasetRoundTrip pins storage-once: row-major in, the same
// values out through Tables, the input not retained, and
// the rows of one table adjacent in one slab.
func TestDatasetRoundTrip(t *testing.T) {
	raw := [][]int64{{1, 10, 100}, {2, 20, 200}, {3, 30, 300}}
	ds := NewDataset("rt", "round trip", nil, map[string][][]int64{"t": raw, "empty": nil})
	rows := ds.Tables["t"]
	if len(rows) != len(raw) {
		t.Fatalf("rows = %d, want %d", len(rows), len(raw))
	}
	for i, r := range raw {
		for c, v := range r {
			if rows[i][c] != v {
				t.Fatalf("[%d][%d] = %d, want %d", i, c, rows[i][c], v)
			}
		}
		if i > 0 && uintptr(unsafe.Pointer(&rows[i][0]))-uintptr(unsafe.Pointer(&rows[i-1][0])) != 8*uintptr(len(r)) {
			t.Fatalf("row %d does not follow row %d in the slab", i, i-1)
		}
	}
	raw[0][0] = 99
	if rows[0][0] != 1 {
		t.Fatal("dataset aliases the generator's rows")
	}
	if ds.Tables["missing"] != nil {
		t.Fatal("missing table must be nil")
	}
	if len(ds.Tables["empty"]) != 0 || ds.TotalRows() != 3 {
		t.Fatalf("empty table: %d rows, total %d", len(ds.Tables["empty"]), ds.TotalRows())
	}
}

// TestViewsSortedStableShared: a view is its table's rows stably
// sorted on the index keys; one whose order the table already has is
// the table's own rows, any other owns a copy.
func TestViewsSortedStableShared(t *testing.T) {
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{
		Name:    "t",
		Columns: []catalog.Column{{Name: "k"}, {Name: "seq"}},
		Indexes: []catalog.Index{{Name: "by_k", Columns: []string{"k"}}, {Name: "by_seq", Columns: []string{"seq"}}},
	})
	raw := make([][]int64, 64)
	for i := range raw {
		raw[i] = []int64{int64((i * 7) % 5), int64(i)}
	}
	ds := NewDataset("v", "views", cat, map[string][][]int64{"t": raw})
	base := ds.Tables["t"]
	bySeq, byK := ds.Views["t"]["by_seq"], ds.Views["t"]["by_k"]
	if &bySeq[0][0] != &base[0][0] {
		t.Error("view in table order must share the table's slab")
	}
	if &byK[0][0] == &base[0][0] || len(byK) != len(base) || ChecksumRows(byK) != ChecksumRows(base) {
		t.Fatal("reordering view must own a copy of exactly the table's rows")
	}
	for i := 1; i < len(byK); i++ {
		prev, cur := byK[i-1], byK[i]
		if cur[0] < prev[0] || (cur[0] == prev[0] && cur[1] < prev[1]) {
			t.Fatalf("by_k[%d]=%v after %v: not a stable sort on k", i, cur, prev)
		}
	}
	if want := 2 * int64(len(base)) * (2*8 + 24); ds.MemBytes() != want {
		t.Errorf("MemBytes = %d, want %d (table + one owned view)", ds.MemBytes(), want)
	}
}

// TestMemBytesMatchesHeap: what the registry charges for a dataset —
// its tables and views, and then the build tables it derives — is what
// building them leaves on the heap.
func TestMemBytesMatchesHeap(t *testing.T) {
	spec := tpcrSizes[1]
	var before, after runtime.MemStats
	heap := func(m *runtime.MemStats) { settledHeap(t, m) }
	check := func(what string, got int64) {
		t.Helper()
		grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		if diff := got - grown; diff > grown/10 || diff < -grown/10 {
			t.Errorf("%s: MemBytes = %d, live heap grew %d: off by more than 10%%", what, got, grown)
		}
	}
	heap(&before)
	ds := buildTPCRDataset(spec.name, spec.spec)
	heap(&after)
	check("tables and views", ds.MemBytes())

	// One build table per table, over its bare scan, keyed on its first
	// column: packed keys and, for lineitem, long duplicate runs.
	for name, rows := range ds.Tables {
		if ds.buildTable(buildKey{table: name}, rows) == nil {
			t.Fatalf("build table over %s refused without a budget", name)
		}
	}
	heap(&after)
	check("with build tables", ds.MemBytes())
	runtime.KeepAlive(ds)
}

// TestGenSpecScale pins the scale-factor knob and its one-row floor.
func TestGenSpecScale(t *testing.T) {
	s := tpcr.DefaultGenSpec().Scale(2)
	if s.LineItems != 400 || s.Orders != 120 {
		t.Fatalf("scaled spec = %+v", s)
	}
	tiny := tpcr.DefaultGenSpec().Scale(0.001)
	if tiny.Parts < 1 || tiny.LineItems < 1 {
		t.Fatalf("scale floor violated: %+v", tiny)
	}
}
