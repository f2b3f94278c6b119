package exec

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"orderopt/internal/order"
	"orderopt/internal/plan"
	"orderopt/internal/query"
)

// AggColumn is the schema entry of the aggregate column the group
// operators append after the grouping keys. Rel -1 never names a
// relation, so it cannot collide with a real column reference.
var AggColumn = query.ColumnRef{Rel: -1, Col: 0}

// Runner compiles optimizer plans into executable operator pipelines
// over in-memory tables. It is both the validation harness (a wrong
// ordering claim surfaces as a merge-join or grouping guard-rail error,
// and results must equal brute-force evaluation) and the execution
// backend behind the serving layer's /execute endpoint.
type Runner struct {
	A *query.Analysis
	// Dataset is the data source (Dataset.Runner sets it). An index scan
	// streams the dataset's maintained view of its index (NewDataset
	// builds one per catalog index) — the executor-level equivalent of an
	// index existing, which is what makes runtime sort avoidance
	// measurable. A plan scanning an index the dataset has no view of
	// does not compile.
	Dataset *Dataset
	// DisableTiming compiles no stats wrapper: no per-operator wall-clock
	// accounting (row counters remain). cmd/experiments and the
	// conformance runner disable it so operator timer overhead does not
	// tint what they measure and compare; the serving layer disables it
	// unless a request sets analyze.
	DisableTiming bool
	// Budget bounds the bytes each compiled pipeline may materialize
	// (0 is unlimited); Accountant, when set, additionally charges them
	// to the process's memory gauge, shared with every other query and
	// with the resident datasets.
	Budget     Budget
	Accountant *Accountant
	// Hook, when set, wraps every operator as it is compiled — the
	// fault-injection seam (see internal/faultinject). It runs inside
	// the stats wrapper, so injected delays show up in the operator's
	// time like any other work; the operator counts what it hands the
	// hook. A spine of joins is one operator, offered under its top
	// join's op and detail; the joins below the top are levels of its
	// cursor and are never offered, serial or not.
	// Under an exchange the hook wraps each morsel's driving scan, inside
	// the worker, so faults fire in workers too. A hooked runner adopts
	// no dataset-resident state in place of a scan.
	Hook IterHook
	// MaxDOP, when > 0, caps the degree of parallelism of any exchange
	// in a compiled plan below what the optimizer planned — the
	// per-request maxDOP clamp of the serving layer.
	MaxDOP int

	equiv map[query.ColumnRef]int // lazily built column equivalence classes
}

// IterHook rewrites one compiled operator: a scan, a Sort, a grouping,
// a Limit, an exchange, or a spine of joins, offered as its top join. op
// and detail match the OpStats entry the operator reports under (a
// scan's, serial or one morsel's, is the entry it counts into); life is
// the pipeline's lifecycle, whose Done channel lets blocking wrappers
// unblock on cancellation. A hook's wrapper must not keep a row past its
// next Next: a spine's output rows are recycled once its consumer can
// no longer hold them (see Runner.shape).
type IterHook func(op, detail string, it Iterator, life *Life) Iterator

// OpStats is one operator's execution counters, in pipeline preorder.
type OpStats struct {
	// Op is the physical operator name (plan.Op.String()).
	Op string `json:"op"`
	// Detail identifies the operator's target: relation/index for scans,
	// the ordering for sorts, the join predicate for joins, the grouping
	// columns for group operators.
	Detail string `json:"detail,omitempty"`
	// EstRows is the optimizer's output-cardinality estimate.
	EstRows float64 `json:"estRows"`
	// Rows counts the rows the operator emitted — handed to its consumer
	// — exactly, under a Limit too: a stats wrapper takes back the rows
	// it pulled ahead and never handed on (see statsIter).
	Rows int64 `json:"rows"`
	// TimeNs is cumulative wall time spent in the operator's Open and
	// Next calls, children included (EXPLAIN ANALYZE convention); 0 when
	// the runner's timing is disabled, for a scan (its time is inside its
	// consumer's entry; a plan that is a bare scan has none to be
	// inside), for a join below the top of its spine (inside the top
	// join's entry), and for what an exchange's workers run (inside the
	// exchange's entry).
	TimeNs int64 `json:"timeNs"`
	// DOP is the effective degree of parallelism for exchange operators
	// and the operators running inside their workers; 0 for serial
	// operators.
	DOP int `json:"dop,omitempty"`
	// Limited marks operators running under a Limit: EstRows is the
	// optimizer's pre-limit estimate of the full stream, so Rows can
	// legitimately stop far short of it once the limit quiesces the
	// pipeline. Without the marker that gap reads as a misestimate.
	Limited bool `json:"limited,omitempty"`
	// Resident marks a join's right-side scan that never ran: the join
	// adopted dataset state in its place (Runner.joinRight). A hash
	// join's is the resident build table over the relation
	// (Dataset.buildTable), and Rows is that table's size; a merge
	// join's is the index view sorted on its key, and Rows is what the
	// join read of it.
	Resident bool `json:"resident,omitempty"`
}

// Pipeline is a compiled plan: the operator tree plus its output schema
// and per-operator counters. A pipeline is single-use per Execute call
// and not safe for concurrent use; compile one per execution.
type Pipeline struct {
	// Root is the top operator (under its stats wrapper, when timed).
	Root Iterator
	// Schema describes Root's output columns; group pipelines emit the
	// grouping columns followed by one Rel -1 column per aggregate
	// select-list item (AggColumn when the query binds none and the
	// default count(*) applies).
	Schema []query.ColumnRef
	// Ops lists the per-operator counters in plan preorder.
	Ops []*OpStats
	// Life is the pipeline's execution lifecycle: cancellation,
	// per-query budget and shared memory accounting.
	Life *Life

	// rootRing is the output allocator of the spine at the root (under
	// any Limits), which compiles unbounded: draining Root keeps every
	// row.
	// StreamContext bounds it to its chunk plus rootSlack, the bursts of
	// the stats wrappers between that spine and the stream (see shape).
	rootRing  *rowAlloc
	rootSlack int
}

// Execute opens the pipeline, drains it and returns all rows. It is
// ExecuteContext under context.Background() — uncancellable, for tests
// and benchmarks.
func (p *Pipeline) Execute() ([]Row, error) {
	return p.ExecuteContext(context.Background())
}

// ExecuteContext is StreamContext with a sink that collects every row,
// observing ctx the same way. When the pipeline carves rows from pooled
// chunks (its Life has an arena), which StreamContext recycles before it
// returns, the sink copies each chunk of rows into a slab of its own.
func (p *Pipeline) ExecuteContext(ctx context.Context) (out []Row, err error) {
	err = p.StreamContext(ctx, DefaultStreamChunk, func(rows []Row) error {
		if len(p.Life.arena) == 0 {
			out = append(out, rows...)
			return nil
		}
		slab := slices.Concat(rows...)
		for _, r := range rows {
			out, slab = append(out, slab[:len(r):len(r)]), slab[len(r):]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AdoptLease hands the pipeline n bytes its caller already reserved on
// the runner's Accountant — the serving layer's admission reserve —
// which then cover the first n bytes the pipeline takes, instead of
// being reserved a second time. The ExecuteContext or StreamContext
// call that must follow releases them with the rest of its charge, on
// every path; the caller must not.
func (p *Pipeline) AdoptLease(n int64) { p.Life.reserve += n }

// RowsSorted sums the rows Sort operators consumed — the benchmark's
// "how much sorting did this plan actually do" number. A Sort drains
// its whole input even when a Limit above it stops after k rows, so
// each Sort counts its input's rows: its child, the next entry in
// preorder.
func (p *Pipeline) RowsSorted() int64 {
	var n int64
	for i, op := range p.Ops {
		if op.Op == plan.Sort.String() {
			n += p.Ops[i+1].Rows
		}
	}
	return n
}

// The meter's two regimes. An operator's first meterWarmCalls Next calls
// are timed one clock pair each and buffer nothing, so a short pipeline
// (a top-10 early-out) runs exactly as if bursts did not exist; from
// then on the wrapper pulls up to meterBurstRows rows under one clock
// pair. A clock pair costs about as much as an operator's Next, so
// timing per row made the meter half of a long pipeline's bill.
const (
	meterWarmCalls = 16
	meterBurstRows = 64
)

// meterEpoch anchors the meter's clock reads: time.Since of an instant
// that carries a monotonic reading reads only the monotonic clock, which
// costs about half of what time.Now does.
var meterEpoch = time.Now()

// burst is a statsIter's look-ahead: rows[pos:n] were pulled from the
// operator under one clock pair and are handed out one per Next without
// reading the clock. ended records that the pull ran into the end of the
// stream, or into err; either is delivered after the rows before it.
type burst struct {
	rows   [meterBurstRows]Row
	pos, n int
	ended  bool
	err    error
}

// statsIter times one operator, and does nothing else: the operator
// counts its own rows and the scans, the cursors and the root loop poll
// for cancellation. Only a timing runner compiles one, over every
// operator but a scan (Runner.wrap): a spine has one, under its top
// join's entry, and an exchange's workers run none.
//
// TimeNs stays exact inclusive wall time under bursts, not an estimate:
// every call into the operator happens between one of this wrapper's
// clock pairs, and a child's burst runs inside its parent's burst (or
// Open), so a parent's time always covers its children's. The operator
// has counted the rows of a burst as it handed them over; Close takes
// back those never handed on, so Rows stays exact under a Limit.
type statsIter struct {
	in    Iterator
	st    *OpStats
	warm  uint8  // Next calls timed singly so far, up to meterWarmCalls
	pairs uint32 // clock pairs read; the meter's tests bound it
	burst *burst // allocated by the first call past the warm-up
}

func (s *statsIter) Open() error {
	s.warm = 0
	if s.burst != nil {
		*s.burst = burst{}
	}
	begin := time.Since(meterEpoch)
	err := s.in.Open()
	s.st.TimeNs += int64(time.Since(meterEpoch) - begin)
	s.pairs++
	return err
}

func (s *statsIter) Next() (Row, bool, error) {
	if b := s.burst; b != nil && b.pos < b.n {
		row := b.rows[b.pos]
		b.pos++
		return row, true, nil
	}
	if s.warm < meterWarmCalls {
		s.warm++
		begin := time.Since(meterEpoch)
		row, ok, err := s.in.Next()
		s.st.TimeNs += int64(time.Since(meterEpoch) - begin)
		s.pairs++
		return row, ok, err
	}
	b := s.burst
	if b == nil {
		b = new(burst)
		s.burst = b
	}
	if !b.ended {
		s.pull(b)
		if b.n > 0 {
			b.pos = 1
			return b.rows[0], true, nil
		}
	}
	// The burst's terminal event, after every row buffered before it. It
	// is delivered once; a caller that asks again asks the operator again,
	// as it always did.
	err := b.err
	b.ended, b.err = false, nil
	return nil, false, err
}

// pull refills the burst from the operator under one clock pair.
func (s *statsIter) pull(b *burst) {
	b.pos, b.n = 0, 0
	begin := time.Since(meterEpoch)
	for b.n < len(b.rows) {
		row, ok, err := s.in.Next()
		if err != nil || !ok {
			b.ended, b.err = true, err
			break
		}
		b.rows[b.n] = row
		b.n++
	}
	s.st.TimeNs += int64(time.Since(meterEpoch) - begin)
	s.pairs++
}

func (s *statsIter) Close() error {
	if b := s.burst; b != nil {
		countRows(s.st, int64(b.pos-b.n))
		s.burst = nil
	}
	return s.in.Close()
}

// Run compiles and executes the plan, returning its rows together with
// the output schema (one entry per column, identifying the source
// relation/column; AggColumn for the aggregate of group pipelines).
func (r *Runner) Run(n *plan.Node) ([]Row, []query.ColumnRef, error) {
	p, err := r.Compile(n)
	if err != nil {
		return nil, nil, err
	}
	rows, err := p.Execute()
	if err != nil {
		return nil, nil, err
	}
	return rows, p.Schema, nil
}

// Compile turns a physical plan into an executable pipeline. Every plan
// shape the optimizer emits compiles: scans (table and index), sorts,
// all three join operators with residual predicates, and the group
// operators with sorts above them — ORDER BY columns are resolved
// through join-equivalence classes, so ordering by a column the plan
// only carries as an equated twin (or grouping by one) works. It is
// Shape followed by CompileShape.
func (r *Runner) Compile(n *plan.Node) (*Pipeline, error) {
	s, err := r.Shape(n)
	if err != nil {
		return nil, err
	}
	return r.CompileShape(s)
}

// Shape is a plan compiled as far as the plan and its query decide:
// every operator's stats entry and detail, scan schemas, join
// predicates resolved to spine pieces, output layouts, and sort and
// group keys. The rest is left to CompileShape: the rows a dataset
// holds, the resident state a join adopts, the effective degree of
// parallelism, the fault hook, timing and all operator state. A Shape
// is immutable, so the pipelines compiled from it, concurrently or not,
// share it.
type Shape struct {
	a      *query.Analysis
	root   *opShape
	ops    []OpStats // every operator's entry in plan preorder, rows and time zero
	schema []query.ColumnRef
}

// opShape is one operator of a Shape.
type opShape struct {
	op    plan.Op
	st    int       // its entry in Shape.ops
	in    *opShape  // Sort, Limit, the groups: their input; a spine: its driving input; an exchange: its driving scan
	keys  []int     // Sort, the groups
	aggs  []AggSpec // the groups
	limit int64
	leaf  *leafShape  // a scan
	spine *spineShape // a spine; an exchange over one (no levels over a bare scan)
	hold  int         // a spine: its consumer's hold (see shape)
	dop   int         // an exchange: the planned degree of parallelism
	dops  []int       // an exchange: the entries that report its effective DOP
}

// leafShape is a scan resolved against its relation: the stream it
// reads, the relation's constant predicates and its schema. The stream's
// rows are the dataset's (Runner.rows).
type leafShape struct {
	pred    func(Row) bool
	schema  []query.ColumnRef
	key     buildKey // names the stream (Dataset.buildTable; an adopter fills in col)
	leading int      // column the stream is sorted on first; -1 for a table scan
}

// Shape compiles plan n as far as the plan and the runner's query decide.
func (r *Runner) Shape(n *plan.Node) (*Shape, error) {
	s := &Shape{a: r.A}
	root, schema, err := r.shape(n, s, nil, -meterBurstRows)
	if err != nil {
		return nil, err
	}
	s.root, s.schema = root, schema
	return s, nil
}

// CompileShape compiles a pipeline from s, a Shape built for the
// runner's query, over the runner's dataset.
func (r *Runner) CompileShape(s *Shape) (*Pipeline, error) {
	if r.Dataset == nil {
		return nil, fmt.Errorf("exec: runner has no dataset (build one with Dataset.Runner)")
	}
	if s.a != r.A {
		return nil, fmt.Errorf("exec: shape compiled for another query")
	}
	p := &Pipeline{Life: &Life{budget: r.Budget, acct: r.Accountant}, Schema: s.schema}
	stats := slices.Clone(s.ops)
	p.Ops = make([]*OpStats, len(stats))
	for i := range stats {
		p.Ops[i] = &stats[i]
	}
	it, err := r.build(s.root, p)
	if err != nil {
		return nil, err
	}
	p.Root = it
	return p, nil
}

// wrap attaches the timer of st, registered on the pipeline by build,
// around operator it, unless timing is disabled; the fault hook, when
// configured, interposes under it.
func (r *Runner) wrap(it Iterator, st *OpStats, p *Pipeline) Iterator {
	it = hooked(r.Hook, it, st, p.Life)
	if r.DisableTiming {
		return it
	}
	return &statsIter{in: it, st: st}
}

// hooked interposes hook, when set, on operator it, which reports under
// st.
func hooked(hook IterHook, it Iterator, st *OpStats, life *Life) Iterator {
	if hook != nil {
		it = hook(st.Op, st.Detail, it, life)
	}
	return it
}

// shapeScan resolves scan node n against its relation and sets its
// entry's detail. It has three consumers: the serial compiler, the
// exchange, which runs the scan over each morsel, and join adoption.
func (r *Runner) shapeScan(n *plan.Node, st *OpStats) *leafShape {
	rel := &r.A.Graph.Relations[n.Rel]
	leaf := &leafShape{key: buildKey{table: rel.Table.Name}, leading: -1}
	st.Detail = rel.Alias
	leaf.schema = make([]query.ColumnRef, len(rel.Table.Columns))
	for c := range leaf.schema {
		leaf.schema[c] = query.ColumnRef{Rel: n.Rel, Col: c}
	}
	if n.Op == plan.IndexScan {
		ix := rel.Table.Indexes[n.Index]
		st.Detail += "/" + ix.Name
		leaf.key.view, leaf.leading = ix.Name, rel.Table.ColumnIndex(ix.Columns[0])
	}
	if len(rel.ConstPreds) > 0 {
		leaf.pred = func(row Row) bool {
			for _, p := range rel.ConstPreds {
				if !p.Matches(row[p.Col.Col]) {
					return false
				}
			}
			return true
		}
	}
	return leaf
}

// rows returns the rows leaf streams: the dataset's table, or its view
// of the index. A table, or a view, the dataset does not hold is the
// only error.
func (r *Runner) rows(leaf *leafShape) ([]Row, error) {
	k := leaf.key
	rows, ok := r.Dataset.Tables[k.table]
	if !ok {
		return nil, fmt.Errorf("exec: no data for table %s", k.table)
	}
	if k.view != "" {
		if rows, ok = r.Dataset.Views[k.table][k.view]; !ok {
			return nil, fmt.Errorf("exec: no view of index %s on table %s", k.view, k.table)
		}
	}
	return rows, nil
}

// liveCols is the set of columns read above a plan node; nil is every
// column, which is what a pipeline with no Group* above the node
// outputs.
type liveCols []query.ColumnRef

// plus returns l with cols added; every column stays every column.
func (l liveCols) plus(cols ...query.ColumnRef) liveCols {
	if l == nil {
		return nil
	}
	out := append(make(liveCols, 0, len(l)+len(cols)), l...)
	for _, c := range cols {
		if colPos(out, c) < 0 {
			out = append(out, c)
		}
	}
	return out
}

// planRels is the set of relations plan n scans.
func planRels(n *plan.Node) uint64 {
	if n == nil {
		return 0
	}
	if n.Op == plan.TableScan || n.Op == plan.IndexScan {
		return 1 << uint(n.Rel)
	}
	return planRels(n.Left) | planRels(n.Right)
}

const holdReleased = 1 << 31 // and up; see shape

// entry registers plan node n's stats entry on s, in plan preorder, and
// returns its index.
func (s *Shape) entry(n *plan.Node) int {
	s.ops = append(s.ops, OpStats{Op: n.Op.String(), EstRows: n.Card})
	return len(s.ops) - 1
}

// shape compiles plan n into s as far as the plan decides. live is the
// compiler's top-down liveness pass: the columns read above n — the
// group keys and aggregate inputs under a Group*, plus the sort keys
// under a Sort, plus at every join, for its inputs only, the columns of
// the predicates crossing it. Only spines act on it (shapeSpine): a scan
// streams the table's own rows, a resident build table holds whole base
// rows, and a spine copies into its output row just what is live.
//
// hold is the second top-down value: the most rows of n's output that
// can still be referenced, by n's consumer or by n's own stats
// wrapper's burst, when n carves its next row. Only spines act on it,
// sizing their output ring (rowAlloc.window). 0 is unbounded, rows kept
// until the pipeline ends; holdReleased and up (a Limit adds to it) is
// unbounded with rows let go before that. A negative hold marks the
// root's chain, whose consumer only run time knows; -hold counts the
// bursts between it and that consumer (Pipeline.rootRing). The rules:
//
//   - A spine's driving input and GroupSorted's get 1 + meterBurstRows.
//     The consumer references one input row (the spine's driving row;
//     GroupSorted copies a group's first row) and asks for the
//     next only when done with it. The input's wrapper refills its burst
//     only when all of it has been taken, and pulls at most
//     meterBurstRows rows. At a carve: the consumer's row, at most
//     meterBurstRows-1 rows earlier in the pull, and the new row.
//   - A Limit's input gets the Limit's hold grown by meterBurstRows: the
//     Limit hands its input's rows on unchanged, so they are held
//     wherever its own are, plus one partial burst in the input's
//     wrapper.
//   - A streamed merge join's right input and GroupHash's get
//     holdReleased: the join drops each duplicate group, GroupHash all
//     but groups' first rows. Their spines carve owned chunks the
//     collector frees as rows die; like every chunk, each stays charged
//     until the pipeline ends.
//   - Every other input gets 0. Sort keeps its run; a hash join's build
//     and a nested-loop join's inner are materialized; an exchange's
//     right inputs are its shared state. Spines under these, the root
//     chain and the rings are pooled (rowAlloc): their rows are dead at
//     Life.releaseAll and not before. Morsel allocators stay owned.
//
// A spine emits copies, never its inputs' rows, so the count restarts
// at each spine: at every carve the rows still live are at most the
// consumer's held rows plus one partial burst per wrapper hop, which is
// the window. A fault hook keeps no row past its next Next (IterHook), so
// it holds nothing more.
func (r *Runner) shape(n *plan.Node, s *Shape, live liveCols, hold int) (*opShape, []query.ColumnRef, error) {
	o := &opShape{op: n.Op, st: s.entry(n)}
	switch n.Op {
	case plan.TableScan, plan.IndexScan:
		o.leaf = r.shapeScan(n, &s.ops[o.st])
		return o, o.leaf.schema, nil

	case plan.Sort:
		cols, err := r.sortCols(n.SortOrd)
		if err != nil {
			return nil, nil, err
		}
		in, schema, err := r.shape(n.Left, s, r.carried(live, cols, n.Left), 0)
		if err != nil {
			return nil, nil, err
		}
		keys, detail, err := r.resolveSort(cols, schema)
		if err != nil {
			return nil, nil, err
		}
		s.ops[o.st].Detail = detail
		o.in, o.keys = in, keys
		return o, schema, nil

	case plan.MergeJoin, plan.HashJoin, plan.NestedLoopJoin:
		o.hold, o.spine = hold, &spineShape{}
		schema, err := r.shapeSpine(n, s, o.st, live, o.spine, nil, func(n *plan.Node, live liveCols) (schema []query.ColumnRef, err error) {
			o.in, schema, err = r.shape(n, s, live, 1+meterBurstRows)
			return schema, err
		})
		if err != nil {
			return nil, nil, err
		}
		return o, schema, nil

	case plan.ExchangeMerge:
		schema, err := r.shapeExchange(n, s, o, live)
		if err != nil {
			return nil, nil, err
		}
		return o, schema, nil

	case plan.Limit:
		start := len(s.ops)
		// One more burst, away from 0 (which stays unbounded).
		in, schema, err := r.shape(n.Left, s, live, hold+cmp.Compare(hold, 0)*meterBurstRows)
		if err != nil {
			return nil, nil, err
		}
		// Everything below a Limit runs under early-out: flag it so the
		// stats reader knows EstRows is the pre-limit estimate.
		for i := range s.ops[start:] {
			s.ops[start+i].Limited = true
		}
		s.ops[o.st].Detail = fmt.Sprintf("k=%d", n.Limit)
		o.in, o.limit = in, int64(n.Limit)
		return o, schema, nil

	case plan.GroupSorted, plan.GroupHash:
		// The group operators define their output, so what is live above
		// one does not reach below it.
		g := r.A.Graph
		cols := append([]query.ColumnRef{}, g.GroupBy...)
		for _, a := range g.Aggregates {
			if a.Fn != query.AggCount {
				cols = append(cols, a.Col)
			}
		}
		inHold := holdReleased
		if n.Op == plan.GroupSorted {
			inHold = 1 + meterBurstRows
		}
		in, schema, err := r.shape(n.Left, s, r.carried(liveCols{}, cols, n.Left), inHold)
		if err != nil {
			return nil, nil, err
		}
		keys, aggs, outSchema, err := r.resolveGroup(schema, &s.ops[o.st])
		if err != nil {
			return nil, nil, err
		}
		o.in, o.keys, o.aggs = in, keys, aggs
		return o, outSchema, nil
	}
	return nil, nil, fmt.Errorf("exec: unsupported plan operator %v", n.Op)
}

// build compiles operator o of a shape into the pipeline: the dataset's
// rows, adopted state, and the operators themselves.
func (r *Runner) build(o *opShape, p *Pipeline) (Iterator, error) {
	st := p.Ops[o.st]
	switch o.op {
	case plan.TableScan, plan.IndexScan:
		rows, err := r.rows(o.leaf)
		if err != nil {
			return nil, err
		}
		return hooked(r.Hook, &scan{rows: rows, pred: o.leaf.pred, st: st, life: p.Life}, st, p.Life), nil

	case plan.MergeJoin, plan.HashJoin, plan.NestedLoopJoin:
		var in Iterator
		var sp spine
		err := r.buildSpine(o.spine, p, &sp, func() (err error) {
			in, err = r.build(o.in, p)
			return err
		})
		if err != nil {
			return nil, err
		}
		s := newSpineIter(in, p.Life, sp)
		if o.hold < holdReleased {
			s.alloc.window, s.alloc.pooled = max(o.hold, 0), true
			p.Life.arena = append(p.Life.arena, &s.alloc)
		}
		if o.hold < 0 {
			p.rootRing, p.rootSlack = &s.alloc, -o.hold
		}
		return r.wrap(s, st, p), nil

	case plan.ExchangeMerge:
		return r.buildExchange(o, p)
	}

	in, err := r.build(o.in, p)
	if err != nil {
		return nil, err
	}
	var it Iterator
	switch o.op {
	case plan.Sort:
		it = &Sort{In: in, Keys: o.keys, Life: p.Life, st: st}
	case plan.Limit:
		it = &Limit{In: in, N: o.limit, Life: p.Life, st: st}
	case plan.GroupSorted:
		it = &GroupSorted{In: in, Keys: o.keys, Aggs: o.aggs, st: st}
	default:
		it = &GroupHash{In: in, Keys: o.keys, Aggs: o.aggs, Life: p.Life, st: st}
	}
	return r.wrap(it, st, p), nil
}

// resolveGroup resolves the query's GROUP BY columns and aggregate
// select list against a group operator's input schema: key positions,
// aggregate specs and the group output schema, appending the display
// detail to st. Aggregate output columns get Rel -1 / select-list
// position, which the serving layer renders back through
// Graph.AggregateName; a query binding no aggregates gets the
// executor's default single count(*) (AggColumn).
func (r *Runner) resolveGroup(schema []query.ColumnRef, st *OpStats) ([]int, []AggSpec, []query.ColumnRef, error) {
	g := r.A.Graph
	keys := make([]int, 0, len(g.GroupBy))
	outSchema := make([]query.ColumnRef, 0, len(g.GroupBy)+1)
	for _, c := range g.GroupBy {
		pos := r.colPosEquiv(schema, c)
		if pos < 0 {
			return nil, nil, nil, fmt.Errorf("exec: group column %s not in schema", g.ColumnName(c))
		}
		keys = append(keys, pos)
		outSchema = append(outSchema, c)
		if st.Detail != "" {
			st.Detail += ", "
		}
		st.Detail += g.ColumnName(c)
	}
	var aggs []AggSpec
	for i, a := range g.Aggregates {
		spec := AggSpec{Fn: a.Fn}
		if a.Fn != query.AggCount {
			pos := r.colPosEquiv(schema, a.Col)
			if pos < 0 {
				return nil, nil, nil, fmt.Errorf("exec: aggregate column %s not in schema", g.ColumnName(a.Col))
			}
			spec.Col = pos
		}
		aggs = append(aggs, spec)
		outSchema = append(outSchema, query.ColumnRef{Rel: -1, Col: i})
		st.Detail += ", " + g.AggregateName(a)
	}
	if len(aggs) == 0 {
		outSchema = append(outSchema, AggColumn)
	}
	return keys, aggs, outSchema, nil
}

// carried returns live plus the columns cols — what a Sort or Group*
// over child reads — as child will carry them, for resolveSort and
// resolveGroup to find through colPosEquiv. That is the column itself
// (child scans its relation: both consumers sit above the joins that
// bring it in), except above the whole join tree, where every predicate
// has been applied: there a column equated to it that is already live
// stands in, rather than a twin widening every row.
func (r *Runner) carried(live liveCols, cols []query.ColumnRef, child *plan.Node) liveCols {
	if live == nil {
		return nil
	}
	whole := planRels(child) == 1<<uint(len(r.A.Graph.Relations))-1
	out := live
	for _, c := range cols {
		if whole && len(out) > 0 && colPos(out, c) < 0 {
			classes := r.equivClasses()
			class, ok := classes[c]
			if ok && slices.ContainsFunc(out, func(m query.ColumnRef) bool {
				id, ok := classes[m]
				return ok && id == class
			}) {
				continue
			}
		}
		out = out.plus(c)
	}
	return out
}

// joinPreds lists every equality predicate crossing join n, whose
// inputs scan the relations lrels and rrels, with its columns oriented
// to the two sides; shapeSpine resolves them to pieces once the inputs
// are compiled. It returns the predicates, the index of the plan's
// primary predicate (the one the join algorithm evaluates) and its
// display detail. All predicates must hold on the output: the
// non-primary ones are the level's check (spineLevel.check).
func (r *Runner) joinPreds(n *plan.Node, lrels, rrels uint64) ([]joinEq, int, string, error) {
	g := r.A.Graph
	var eqs []joinEq
	primary := -1
	detail := ""
	for _, e := range g.EdgesBetween(lrels, rrels) {
		for pi, pred := range g.Edges[e].Preds {
			eq := joinEq{lc: pred.Left, rc: pred.Right}
			if lrels&(1<<uint(pred.Left.Rel)) == 0 { // predicate written the other way round
				eq.lc, eq.rc = pred.Right, pred.Left
			}
			eqs = append(eqs, eq)
			if e == n.Edge && pi == n.Pred {
				primary = len(eqs) - 1
				detail = fmt.Sprintf("%s = %s", g.ColumnName(pred.Left), g.ColumnName(pred.Right))
			}
		}
	}
	if len(eqs) == 0 {
		return nil, 0, "", fmt.Errorf("exec: join without predicates")
	}
	if primary < 0 {
		primary = 0
	}
	return eqs, primary, detail, nil
}

// joinLive splits the columns live above a join between its inputs —
// lrels is what the left one scans — and adds to each side the columns
// of the crossing predicates, which the join reads and nothing above it
// need see.
func joinLive(live liveCols, eqs []joinEq, lrels uint64) (l, r liveCols) {
	if live == nil {
		return nil, nil
	}
	l, r = liveCols{}, liveCols{}
	for _, c := range live {
		if lrels&(1<<uint(c.Rel)) != 0 {
			l = append(l, c)
		} else {
			r = append(r, c)
		}
	}
	for _, e := range eqs {
		l, r = l.plus(e.lc), r.plus(e.rc)
	}
	return l, r
}

// sortCols maps an ordering's attributes to the columns they name.
func (r *Runner) sortCols(ord order.ID) ([]query.ColumnRef, error) {
	seq := r.A.Builder.Interner().Seq(ord)
	cols := make([]query.ColumnRef, 0, len(seq))
	for _, at := range seq {
		c, ok := r.A.ColumnOf(at)
		if !ok {
			return nil, fmt.Errorf("exec: sort attribute %d has no column", at)
		}
		cols = append(cols, c)
	}
	return cols, nil
}

// resolveSort maps a sort's columns to schema positions, resolving
// columns the schema only carries as equated twins through the join
// equivalence classes.
func (r *Runner) resolveSort(cols []query.ColumnRef, schema []query.ColumnRef) ([]int, string, error) {
	keys := make([]int, 0, len(cols))
	detail := ""
	for _, c := range cols {
		pos := r.colPosEquiv(schema, c)
		if pos < 0 {
			return nil, "", fmt.Errorf("exec: sort column %s not in schema (nor any equated column)",
				r.A.Graph.ColumnName(c))
		}
		keys = append(keys, pos)
		if detail != "" {
			detail += ", "
		}
		detail += r.A.Graph.ColumnName(c)
	}
	return keys, detail, nil
}

func colPos(schema []query.ColumnRef, c query.ColumnRef) int {
	for i, s := range schema {
		if s == c {
			return i
		}
	}
	return -1
}

// ColPos returns the position of c in a pipeline's output schema, or
// -1 when the column is not carried.
func ColPos(schema []query.ColumnRef, c query.ColumnRef) int {
	return colPos(schema, c)
}

// colPosEquiv is colPos with a fallback through the query's column
// equivalence classes: when c itself is not in the schema, any column
// equated to it by the join predicates (transitively) stands in. This
// is what lifts the old "ORDER BY ⊆ GROUP BY" executor restriction —
// a plan may group by a.x and order by b.y with a.x = b.y, or order a
// join output by whichever twin of an equated pair the DP kept.
func (r *Runner) colPosEquiv(schema []query.ColumnRef, c query.ColumnRef) int {
	if pos := colPos(schema, c); pos >= 0 {
		return pos
	}
	classes := r.equivClasses()
	class, ok := classes[c]
	if !ok {
		return -1
	}
	for i, s := range schema {
		if sc, ok := classes[s]; ok && sc == class {
			return i
		}
	}
	return -1
}

// equivClasses unions columns across every join equality predicate;
// columns in one class carry equal values in any join output that
// applied the predicates.
func (r *Runner) equivClasses() map[query.ColumnRef]int {
	if r.equiv != nil {
		return r.equiv
	}
	g := r.A.Graph
	parent := map[query.ColumnRef]query.ColumnRef{}
	var find func(c query.ColumnRef) query.ColumnRef
	find = func(c query.ColumnRef) query.ColumnRef {
		p, ok := parent[c]
		if !ok || p == c {
			parent[c] = c
			return c
		}
		root := find(p)
		parent[c] = root
		return root
	}
	for e := range g.Edges {
		for _, pred := range g.Edges[e].Preds {
			parent[find(pred.Left)] = find(pred.Right)
		}
	}
	classes := map[query.ColumnRef]int{}
	ids := map[query.ColumnRef]int{}
	for c := range parent {
		root := find(c)
		id, ok := ids[root]
		if !ok {
			id = len(ids)
			ids[root] = id
		}
		classes[c] = id
	}
	r.equiv = classes
	return classes
}

// BruteForce evaluates the query graph directly: the filtered cartesian
// product of all relations, columns in relation order 0..n-1. The result
// is the reference the Runner's plans are validated against.
func BruteForce(a *query.Analysis, data map[string][][]int64) ([]Row, []query.ColumnRef, error) {
	g := a.Graph
	var schema []query.ColumnRef
	offsets := make([]int, len(g.Relations))
	for r := range g.Relations {
		offsets[r] = len(schema)
		for c := range g.Relations[r].Table.Columns {
			schema = append(schema, query.ColumnRef{Rel: r, Col: c})
		}
	}
	pos := func(c query.ColumnRef) int { return offsets[c.Rel] + c.Col }

	var out []Row
	var recurse func(rel int, acc Row)
	recurse = func(rel int, acc Row) {
		if rel == len(g.Relations) {
			for e := range g.Edges {
				for _, p := range g.Edges[e].Preds {
					if acc[pos(p.Left)] != acc[pos(p.Right)] {
						return
					}
				}
			}
			out = append(out, append(Row{}, acc...))
			return
		}
		relData, ok := data[g.Relations[rel].Table.Name]
		if !ok {
			relData = nil
		}
		for _, row := range relData {
			match := true
			for _, p := range g.Relations[rel].ConstPreds {
				if !p.Matches(row[p.Col.Col]) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			recurse(rel+1, append(acc, row...))
		}
	}
	recurse(0, nil)
	return out, schema, nil
}

// Canonicalize reorders each row's columns from the given schema into
// relation order 0..n-1 so results from different plans compare equal.
func Canonicalize(rows []Row, schema []query.ColumnRef, g *query.Graph) []Row {
	var canonical []query.ColumnRef
	for r := range g.Relations {
		for c := range g.Relations[r].Table.Columns {
			canonical = append(canonical, query.ColumnRef{Rel: r, Col: c})
		}
	}
	perm := make([]int, len(canonical))
	for i, c := range canonical {
		perm[i] = colPos(schema, c)
	}
	out := make([]Row, len(rows))
	for i, row := range rows {
		nr := make(Row, len(perm))
		for j, p := range perm {
			if p >= 0 && p < len(row) {
				nr[j] = row[p]
			}
		}
		out[i] = nr
	}
	return out
}
