package exec

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"orderopt/internal/catalog"
	"orderopt/internal/freelist"
	"orderopt/internal/query"
	"orderopt/internal/querygen"
	"orderopt/internal/tpcr"
)

// Dataset is one named, immutable in-memory database the executor can
// run plans over. Every table is resident exactly once, as one
// row-major slab built at load (row i is slab[i*w:(i+1)*w]) — the
// layout the row operators scan. Every index the catalog defines is
// maintained as a second []Row in index order, the only way an index
// scan reads: when the table already lies in that order the view
// aliases the table's rows, otherwise it owns a slab of its own in
// index order. Datasets must not be mutated after
// registration — the serving layer executes concurrent requests
// against them. What a dataset derives from its own rows afterwards
// (hash-join build tables, see buildTable) is built at most once,
// immutable, counted in MemBytes and freed with the dataset.
type Dataset struct {
	Name string
	// Desc is a one-line description shown by the serving layer.
	Desc string
	// Tables maps table names to their rows (columns aligned with the
	// catalog's column order).
	Tables map[string][]Row
	// Views maps table name → index name → the table's rows in index
	// order (built by NewDataset).
	Views map[string]map[string][]Row

	// owner is the registry holding this dataset resident: build tables
	// are charged to its accountant and counted in its stats. A dataset
	// no registry holds retains them unbounded.
	owner   atomic.Pointer[Registry]
	mu      sync.Mutex // guards builds, and is held while one is built
	builds  map[buildKey]*hashView
	derived atomic.Int64 // bytes of the retained build tables
	tables  atomic.Int64 // how many there are
}

// buildKey names one hash-join build table: the stream of a table's
// bare scan (view "") or of one of its maintained index views, keyed on
// column col.
type buildKey struct {
	table, view string
	col         int
}

// hashView is a hash-join build table, resident (Dataset.buildTable) or
// built per execution (buildHash), in one form — CSR: rows holds the
// build rows bucket after bucket, in stream order within a bucket (the
// counting sort's output, see buckets). The zero value holds no rows.
type hashView struct {
	buckets
	rows []Row
}

// bucket returns the build rows with key k, in stream order.
func (hv *hashView) bucket(k int64) []Row {
	if i := hv.slot(k); i >= 0 {
		return hv.rows[hv.off[i]:hv.off[i+1]]
	}
	return nil
}

// build fills hv with the CSR table over rows keyed on column col,
// reusing whatever arrays hv already has: direct-address when the key
// span is dense (keySpan), sorted distinct keys otherwise. Its size is
// known before anything lasting is allocated — 4 bytes per bucket
// boundary, 8 per sorted key, one 24-byte row header per row — and
// admit decides on it; a refusal reports false and fills nothing.
func (hv *hashView) build(rows []Row, col int, admit func(bytes int64) bool) bool {
	n := int64(len(rows))
	lo, buckets, dense := keySpan(rows, col)
	keys := hv.keys[:0]
	if !dense {
		keys = slices.Grow(keys, len(rows))
		for _, row := range rows {
			keys = append(keys, row[col])
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
		buckets = int64(len(keys))
	}
	if !admit(4*(buckets+1) + 8*int64(len(keys)) + 24*n) {
		return false
	}
	hv.keys, hv.min, hv.off = keys, lo, zeroedOffsets(hv.off, int(buckets)+1)
	hv.rows = slices.Grow(hv.rows[:0], len(rows))[:n]
	hv.scatter(hv.rows, rows, col)
	return true
}

// hashPool recycles the arrays of the build tables queries make for
// themselves (buildHash): recycle puts a table back cleared of its row
// headers when the join that built it closes. Resident tables own
// their memory.
var hashPool freelist.List[hashView]

// recycle returns a per-execution build table to hashPool; hv must not
// be read afterwards.
func (hv *hashView) recycle() {
	clear(hv.rows)
	hv.rows, hv.keys, hv.off = hv.rows[:0], hv.keys[:0], hv.off[:0]
	hashPool.Put(hv)
}

// drainPool holds buildHash's drain buffers, process-wide: the build
// copies the row headers out, so the buffer is scratch from one build to
// the next, whichever query runs it.
var drainPool freelist.List[[]Row]

// buildHash drains right into the build table a query makes for itself,
// keyed on column col — the one path behind every hash join's build
// (spineLevel.materialize), serial or an exchange's shared side. life is charged for the drain buffer as
// it doubles (rowBuf), so an overrun stops the drain where it happens,
// and for the table's arrays before they are filled. The buffer goes
// back to the pool cleared, pinning no row chunk, on every path out —
// an error or a panic mid-drain included. The table comes from
// hashPool; its owner recycles it when done.
func buildHash(right Iterator, col int, life *Life) (*hashView, error) {
	buf := drainPool.Get()
	rows := rowBuf{rows: (*buf)[:0]}
	defer func() {
		clear(rows.rows)
		*buf = rows.rows[:0]
		drainPool.Put(buf)
	}()
	if err := drainInto(right, func(row Row) error { return rows.append(life, row) }); err != nil {
		return nil, err
	}
	hv := hashPool.Get()
	var err error
	if !hv.build(rows.rows, col, func(bytes int64) bool {
		err = life.hold(bytes)
		return err == nil
	}) {
		hv.recycle()
		return nil, err
	}
	return hv, nil
}

// buildTable returns the resident build table for key over rows (the
// stream key names), building it on first touch — concurrent first
// touches build it once — and never changing it afterwards. Its bytes
// are charged to the owning registry like the tables' own; when they do
// not fit next to what is pinned there, buildTable returns nil and
// retains nothing: the caller builds per execution, as it would under a
// fault hook.
func (d *Dataset) buildTable(key buildKey, rows []Row) *hashView {
	d.mu.Lock()
	defer d.mu.Unlock()
	reg := d.owner.Load()
	if hv := d.builds[key]; hv != nil {
		reg.countBuild(buildHit)
		return hv
	}
	var size int64
	hv := new(hashView)
	if !hv.build(rows, key.col, func(bytes int64) bool {
		size = bytes
		return reg.admitDerived(d, bytes)
	}) {
		reg.countBuild(buildFallback)
		return nil
	}
	if d.builds == nil {
		d.builds = make(map[buildKey]*hashView)
	}
	d.builds[key] = hv
	d.derived.Add(size)
	d.tables.Add(1)
	reg.countBuild(buildMiss)
	return hv
}

// NewDataset copies generated rows into one slab per table and builds
// the presorted view of every index cat defines on those tables (a nil
// cat defines none). The input rows are not retained.
func NewDataset(name, desc string, cat *catalog.Catalog, rows map[string][][]int64) *Dataset {
	d := &Dataset{
		Name:   name,
		Desc:   desc,
		Tables: make(map[string][]Row, len(rows)),
		Views:  make(map[string]map[string][]Row),
	}
	for table, raw := range rows {
		base := packRows(raw)
		d.Tables[table] = base
		var t *catalog.Table
		if cat != nil {
			t, _ = cat.Table(table)
		}
		if t == nil || len(t.Indexes) == 0 {
			continue
		}
		byIndex := make(map[string][]Row, len(t.Indexes))
		for _, ix := range t.Indexes {
			keys := make([]int, len(ix.Columns))
			for i, col := range ix.Columns {
				keys[i] = t.ColumnIndex(col)
			}
			byIndex[ix.Name] = sortedView(base, keys)
		}
		d.Views[table] = byIndex
	}
	return d
}

// packRows copies src into one contiguous slab, row after row, and
// returns the rows as capacity-clipped windows into it.
func packRows[R ~[]int64](src []R) []Row {
	total := 0
	for _, r := range src {
		total += len(r)
	}
	slab := make([]int64, total)
	rows := make([]Row, len(src))
	for i, r := range src {
		n := copy(slab, r)
		rows[i] = slab[:n:n]
		slab = slab[n:]
	}
	return rows
}

// sortedView returns base's rows stably sorted on the key columns. A
// table already in key order is its own view (the stable sort would
// be the identity); any other order gets a slab of its own, so an
// index scan reads memory front to back like a table scan does. The
// sort's scratch is its own, not pooled: a dataset's memory is what it
// allocates at load.
func sortedView(base []Row, keys []int) []Row {
	if SatisfiesOrdering(base, keys) {
		return base
	}
	sorted := append(make([]Row, 0, len(base)), base...)
	sortRows(sorted, keys, nil)
	return packRows(sorted)
}

// ApplyStats rewrites the statistics of every table the graph
// references to match this dataset — actual row counts and actual
// per-column distinct counts — so the cost model's trade-offs (sort vs
// hash, merge vs build/probe) map onto the data the plan will really
// run over. The standard TPC-R catalog carries scale-factor-1
// statistics; planning a mini dataset against those systematically
// misprices every operator. Tables are mutated in place: use a fresh
// graph/catalog per dataset.
func (d *Dataset) ApplyStats(g *query.Graph) {
	seen := make(map[*catalog.Table]bool)
	for i := range g.Relations {
		t := g.Relations[i].Table
		if seen[t] {
			continue
		}
		seen[t] = true
		rows, ok := d.Tables[t.Name]
		if !ok {
			continue
		}
		t.Rows = int64(len(rows))
		distinct := make(map[int64]struct{}, len(rows))
		for c := range t.Columns {
			clear(distinct)
			for _, r := range rows {
				if c < len(r) {
					distinct[r[c]] = struct{}{}
				}
			}
			n := int64(len(distinct))
			if n < 1 {
				n = 1
			}
			t.Columns[c].Distinct = n
		}
	}
}

// TotalRows sums the base-table row counts.
func (d *Dataset) TotalRows() int64 {
	var n int64
	for _, rows := range d.Tables {
		n += int64(len(rows))
	}
	return n
}

// MemBytes is the dataset's resident size: per stored row its values
// plus one slice header, over every table and every view that owns
// its rows (a view aliasing its table adds nothing), plus the build
// tables derived so far.
func (d *Dataset) MemBytes() int64 {
	n := d.derived.Load()
	for table, base := range d.Tables {
		n += rowsBytes(base)
		for _, view := range d.Views[table] {
			if len(view) > 0 && &view[0] != &base[0] {
				n += rowsBytes(view)
			}
		}
	}
	return n
}

func rowsBytes(rows []Row) int64 {
	var n int64
	for _, r := range rows {
		n += 8*int64(len(r)) + 24
	}
	return n
}

// Runner returns a Runner executing plans for a over this dataset.
func (d *Dataset) Runner(a *query.Analysis) *Runner {
	return &Runner{A: a, Dataset: d}
}

// tpcrSizes are the generator specs of the standard TPC-R registry
// tiers.
var tpcrSizes = []struct {
	name string
	spec tpcr.GenSpec
}{
	{"tpcr-small", tpcr.DefaultGenSpec()},
	{"tpcr-mid", tpcr.GenSpec{Parts: 800, Suppliers: 150, Customers: 500, Orders: 1200, LineItems: 8000, Seed: 2}},
	{"tpcr-large", tpcr.GenSpec{Parts: 3000, Suppliers: 500, Customers: 2000, Orders: 6000, LineItems: 40000, Seed: 3}},
}

func buildTPCRDataset(name string, spec tpcr.GenSpec) *Dataset {
	return NewDataset(name, tpcrDesc(spec), tpcr.Schema(), tpcr.Generate(spec))
}

func tpcrDesc(spec tpcr.GenSpec) string {
	return fmt.Sprintf("synthetic TPC-R: %d orders, %d lineitems", spec.Orders, spec.LineItems)
}

// TPCRLazyRegistry builds the standard TPC-R dataset registry: three
// consistent synthetic databases (every foreign key resolves) at
// increasing generator sizes, with all schema indexes presorted. The
// default (first) dataset is the small one. Tiers load on demand:
// nothing is generated until a query first asks for a tier, and loaded
// tiers are LRU-evicted when the accountant the registry charges
// (SetAccountant) runs out of room — without a limit nothing is ever
// evicted. A cold process holds no dataset
// memory.
func TPCRLazyRegistry() *Registry {
	reg := NewRegistry()
	for _, size := range tpcrSizes {
		reg.RegisterLazy(size.name, tpcrDesc(size.spec),
			func() (*Dataset, error) { return buildTPCRDataset(size.name, size.spec), nil })
	}
	return reg
}

// QuerygenDataset generates seeded synthetic data for a querygen
// graph's schema (uniform small-domain values — see
// querygen.GenerateData) and presorts its index views.
func QuerygenDataset(name string, cat *catalog.Catalog, g *query.Graph, rowsPerTable int, seed int64) *Dataset {
	return NewDataset(name,
		fmt.Sprintf("querygen synthetic: %d tables × %d rows, seed %d", len(g.Relations), rowsPerTable, seed),
		cat, querygen.GenerateData(g, rowsPerTable, seed))
}
