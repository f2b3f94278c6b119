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
	// DisableTiming turns off per-operator wall-clock accounting (row
	// counters remain). The benchmark harness disables it so operator
	// timer overhead does not tint the measured runtimes.
	DisableTiming bool
	// Budget bounds the bytes each compiled pipeline may materialize
	// (0 is unlimited); Accountant, when set, additionally charges them
	// to the process's memory gauge, shared with every other query and
	// with the resident datasets.
	Budget     Budget
	Accountant *Accountant
	// Hook, when set, wraps every operator as it is compiled — the
	// fault-injection seam (see internal/faultinject). It runs inside
	// the stats wrapper, so injected behavior shows up in the operator
	// counters like any other work. Inside an exchange segment it wraps
	// each morsel's driving scan, inside the worker, so faults fire in
	// workers too; the morsel still runs through the fused evaluator that
	// serves traffic, whose spine joins are loop levels, not operators,
	// and are never offered to the hook. A hooked runner adopts no
	// dataset-resident state in place of a scan.
	Hook IterHook
	// MaxDOP, when > 0, caps the degree of parallelism of any exchange
	// in a compiled plan below what the optimizer planned — the
	// per-request maxDOP clamp of the serving layer.
	MaxDOP int

	equiv map[query.ColumnRef]int // lazily built column equivalence classes
}

// IterHook rewrites one compiled operator. op and detail match the
// OpStats entry the operator reports under; life is the pipeline's
// lifecycle, whose Done channel lets blocking wrappers unblock on
// cancellation. A hook's wrapper must not keep a row past its next
// Next: a join's output rows are recycled once its consumer can no
// longer hold them (see Runner.build).
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
	// Rows counts the rows the operator actually emitted — handed to its
	// consumer; a timed wrapper may hold up to meterBurstRows more that
	// the consumer never asked for (see statsIter).
	Rows int64 `json:"rows"`
	// TimeNs is cumulative wall time spent in the operator's Open and
	// Next calls, children included (EXPLAIN ANALYZE convention); 0 when
	// the runner's timing is disabled, and for the driving scan and
	// spine joins an exchange's workers evaluate (their time is inside
	// the exchange's own entry).
	TimeNs int64 `json:"timeNs"`
	// DOP is the effective degree of parallelism for exchange operators
	// and the segment operators running inside their workers; 0 for
	// serial operators.
	DOP int `json:"dop,omitempty"`
	// Limited marks operators running under a Limit: EstRows is the
	// optimizer's pre-limit estimate of the full stream, so Rows can
	// legitimately stop far short of it once the limit quiesces the
	// pipeline. Without the marker that gap reads as a misestimate.
	Limited bool `json:"limited,omitempty"`
	// Resident marks a hash join's build-side scan that never ran: the
	// join adopted the dataset-resident build table over the relation
	// (Dataset.buildTable), and Rows is that table's size.
	Resident bool `json:"resident,omitempty"`
}

// Pipeline is a compiled plan: the operator tree plus its output schema
// and per-operator counters. A pipeline is single-use per Execute call
// and not safe for concurrent use; compile one per execution.
type Pipeline struct {
	// Root is the top operator (already wrapped in counters).
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

	// rootRing is the output allocator of the join at the root (under
	// any Limits), which compiles unbounded: Collect keeps every row.
	// StreamContext bounds it to its chunk plus rootSlack, the bursts of
	// the stats wrappers between that join and the stream (see build).
	rootRing  *rowAlloc
	rootSlack int
}

// Execute opens the pipeline, drains it and returns all rows. It is
// ExecuteContext under context.Background() — uncancellable, for tests
// and benchmarks.
func (p *Pipeline) Execute() ([]Row, error) {
	return p.ExecuteContext(context.Background())
}

// ExecuteContext opens the pipeline, drains it and returns all rows,
// observing ctx: cancellation (client disconnect, deadline) is checked
// by every operator's wrapper once per CancelCheckInterval of its rows
// and surfaces as an error wrapping ErrCanceled and ctx.Err(). Whatever
// the pipeline charged against its budget is released before return,
// success or not.
func (p *Pipeline) ExecuteContext(ctx context.Context) ([]Row, error) {
	if err := p.Life.bind(ctx); err != nil {
		return nil, err
	}
	defer p.Life.releaseAll()
	return Collect(p.Root)
}

// RowsSorted sums the rows that passed through Sort operators — the
// benchmark's "how much sorting did this plan actually do" number (a
// sort emits every row it consumed).
func (p *Pipeline) RowsSorted() int64 {
	var n int64
	for _, op := range p.Ops {
		if op.Op == plan.Sort.String() {
			n += op.Rows
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

// statsIter counts (and optionally times) one operator, and is where
// every operator's Next observes cancellation: it counts its own calls
// and polls the Life each time the count wraps, every
// CancelCheckInterval-th call — a build loop deep inside a hash join
// polls through its child's wrapper just like the root does through its
// own, and no wrapper shares a counter with another. An exchange's
// workers run no statsIter: the fused evaluator counts its driving scan
// and spine joins itself and polls the Life on its own count
// (Exchange.runMorsel).
//
// TimeNs stays exact inclusive wall time under bursts, not an estimate:
// every call into the operator happens between one of this wrapper's
// clock pairs, and a child's burst runs inside its parent's burst (or
// Open), so a parent's time always covers its children's.
type statsIter struct {
	in     Iterator
	st     *OpStats
	life   *Life
	timing bool
	warm   uint8  // Next calls timed singly so far, up to meterWarmCalls
	tick   uint8  // Next calls so far, modulo CancelCheckInterval
	pairs  uint32 // clock pairs read; the meter's tests bound it
	burst  *burst // allocated by the first call past the warm-up
}

func (s *statsIter) Open() error {
	s.warm = 0
	if s.burst != nil {
		*s.burst = burst{}
	}
	if !s.timing {
		return s.in.Open()
	}
	begin := time.Since(meterEpoch)
	err := s.in.Open()
	s.st.TimeNs += int64(time.Since(meterEpoch) - begin)
	s.pairs++
	return err
}

func (s *statsIter) Next() (Row, bool, error) {
	if s.tick++; s.tick == 0 {
		if err := s.life.ctxErr(); err != nil {
			return nil, false, err
		}
	}
	if b := s.burst; b != nil && b.pos < b.n {
		row := b.rows[b.pos]
		b.pos++
		s.st.Rows++
		return row, true, nil
	}
	if !s.timing {
		row, ok, err := s.in.Next()
		if ok {
			s.st.Rows++
		}
		return row, ok, err
	}
	if s.warm < meterWarmCalls {
		s.warm++
		begin := time.Since(meterEpoch)
		row, ok, err := s.in.Next()
		s.st.TimeNs += int64(time.Since(meterEpoch) - begin)
		s.pairs++
		if ok {
			s.st.Rows++
		}
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
			s.st.Rows++
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
	s.burst = nil
	return s.in.Close()
}

// batchStatsIter adds batch passthrough to statsIter when the wrapped
// operator emits batches: one cancellation poll, one clock pair and one
// counter update per batch instead of per row.
type batchStatsIter struct {
	statsIter
	b batchIterator
}

// SizeHint forwards the wrapped operator's estimate, when it has one.
func (s *batchStatsIter) SizeHint() int {
	if sh, ok := s.b.(sizeHinter); ok {
		return sh.SizeHint()
	}
	return 0
}

func (s *batchStatsIter) NextBatch() ([]Row, bool, error) {
	if err := s.life.ctxErr(); err != nil {
		return nil, false, err
	}
	if !s.timing {
		batch, ok, err := s.b.NextBatch()
		s.st.Rows += int64(len(batch))
		return batch, ok, err
	}
	begin := time.Since(meterEpoch)
	batch, ok, err := s.b.NextBatch()
	s.st.TimeNs += int64(time.Since(meterEpoch) - begin)
	s.st.Rows += int64(len(batch))
	return batch, ok, err
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
// only carries as an equated twin (or grouping by one) works.
func (r *Runner) Compile(n *plan.Node) (*Pipeline, error) {
	if r.Dataset == nil {
		return nil, fmt.Errorf("exec: runner has no dataset (build one with Dataset.Runner)")
	}
	p := &Pipeline{Life: &Life{budget: r.Budget, acct: r.Accountant}}
	it, schema, err := r.build(n, p, nil, -meterBurstRows)
	if err != nil {
		return nil, err
	}
	p.Root = it
	p.Schema = schema
	return p, nil
}

// wrap attaches counters for node n around it and registers them on the
// pipeline (preorder position was reserved by build); the fault hook,
// when configured, interposes under the counters.
func (r *Runner) wrap(it Iterator, st *OpStats, p *Pipeline) Iterator {
	it = hooked(r.Hook, it, st, p.Life)
	si := statsIter{in: it, st: st, life: p.Life, timing: !r.DisableTiming}
	// A hooked operator loses the batch path by design: the hook's
	// wrapper interposes per row, which is what fault injection needs.
	if b, ok := it.(batchIterator); ok {
		return &batchStatsIter{statsIter: si, b: b}
	}
	return &si
}

// hooked interposes hook, when set, on operator it, which reports under
// st.
func hooked(hook IterHook, it Iterator, st *OpStats, life *Life) Iterator {
	if hook != nil {
		it = hook(st.Op, st.Detail, it, life)
	}
	return it
}

// scanLeaf is a scan plan node resolved against the dataset, for its
// three consumers: the serial compiler (build), the exchange's driving
// leaf (buildSegment) and join adoption (bareScanRows).
type scanLeaf struct {
	rows    []Row          // what the scan streams: the table, or the maintained view of the index
	filter  func(Row) bool // the relation's constant predicates; nil without any
	schema  []query.ColumnRef
	detail  string
	key     buildKey // names the stream (Dataset.buildTable; the adopter fills in col)
	leading int      // column the stream is sorted on first; -1 for a table scan
}

// iter is the scan operator over rows — the leaf's own, or one morsel
// of them — with the relation's filter.
func (l *scanLeaf) iter(rows []Row) Iterator {
	it := Iterator(NewScan(rows))
	if l.filter != nil {
		it = &Filter{In: it, Pred: l.filter}
	}
	return it
}

// resolveScan resolves scan node n; a table, or an index view, the
// dataset does not hold is its only error.
func (r *Runner) resolveScan(n *plan.Node) (scanLeaf, error) {
	rel := &r.A.Graph.Relations[n.Rel]
	raw, ok := r.Dataset.Tables[rel.Table.Name]
	if !ok {
		return scanLeaf{}, fmt.Errorf("exec: no data for table %s", rel.Table.Name)
	}
	leaf := scanLeaf{rows: raw, detail: rel.Alias, key: buildKey{table: rel.Table.Name}, leading: -1}
	leaf.schema = make([]query.ColumnRef, len(rel.Table.Columns))
	for c := range leaf.schema {
		leaf.schema[c] = query.ColumnRef{Rel: n.Rel, Col: c}
	}
	if n.Op == plan.IndexScan {
		ix := rel.Table.Indexes[n.Index]
		leaf.detail += "/" + ix.Name
		leaf.key.view, leaf.leading = ix.Name, rel.Table.ColumnIndex(ix.Columns[0])
		if leaf.rows, ok = r.Dataset.Views[rel.Table.Name][ix.Name]; !ok {
			return scanLeaf{}, fmt.Errorf("exec: no view of index %s on table %s", ix.Name, rel.Table.Name)
		}
	}
	if len(rel.ConstPreds) > 0 {
		leaf.filter = func(row Row) bool {
			for _, p := range rel.ConstPreds {
				if !p.Matches(row[p.Col.Col]) {
					return false
				}
			}
			return true
		}
	}
	return leaf, nil
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

// build compiles plan n. live is the compiler's top-down liveness pass:
// the columns read above n — the group keys and aggregate inputs under a
// Group*, plus the sort keys under a Sort, plus at every join, for its
// inputs only, the columns of the predicates crossing it. Only joins act
// on it (joinOutput): a scan streams the table's own rows, a resident
// build table holds whole base rows, and the first join above either
// copies just what is live.
//
// hold is the second top-down value: the most rows of n's output that
// can still be referenced, by n's consumer or by n's own stats
// wrapper's burst, when n carves its next row. Only joins act on it,
// sizing their output ring (rowAlloc.window). 0 is unbounded. A
// negative hold marks the root's chain, whose consumer only run time
// knows; -hold counts the bursts between it and that consumer
// (Pipeline.rootRing). The rules:
//
//   - A join's left input gets 1 + meterBurstRows. The join references
//     one input row (probe, merge-left or outer row) and asks for the
//     next only when done with it. The input's wrapper refills its burst
//     only when all of it has been taken, and pulls at most
//     meterBurstRows rows. At a carve: the join's row, at most
//     meterBurstRows-1 rows earlier in the pull, and the new row.
//   - A Limit's input gets the Limit's hold grown by meterBurstRows: the
//     Limit hands its input's rows on unchanged, so they are held
//     wherever its own are, plus one partial burst in the input's
//     wrapper.
//   - Every other input gets 0. Sort and Group* keep input rows (the
//     run, g.cur/g.prev); a join's build, right and inner inputs are
//     materialized; an exchange's subtrees are its shared state.
//
// A join emits copies, never its inputs' rows, so the count restarts at
// each join: at every carve the rows still live are at most the
// consumer's held rows plus one partial burst per wrapper hop, which is
// the window. A fault hook sits under a wrapper and keeps no row past
// its next Next (IterHook), so it holds nothing more.
func (r *Runner) build(n *plan.Node, p *Pipeline, live liveCols, hold int) (Iterator, []query.ColumnRef, error) {
	st := &OpStats{Op: n.Op.String(), EstRows: n.Card}
	p.Ops = append(p.Ops, st)
	switch n.Op {
	case plan.TableScan, plan.IndexScan:
		leaf, err := r.resolveScan(n)
		if err != nil {
			return nil, nil, err
		}
		st.Detail = leaf.detail
		return r.wrap(leaf.iter(leaf.rows), st, p), leaf.schema, nil

	case plan.Sort:
		cols, err := r.sortCols(n.SortOrd)
		if err != nil {
			return nil, nil, err
		}
		in, schema, err := r.build(n.Left, p, r.carried(live, cols, n.Left), 0)
		if err != nil {
			return nil, nil, err
		}
		keys, detail, err := r.resolveSort(cols, schema)
		if err != nil {
			return nil, nil, err
		}
		st.Detail = detail
		return r.wrap(&Sort{In: in, Keys: keys, Life: p.Life}, st, p), schema, nil

	case plan.MergeJoin, plan.HashJoin, plan.NestedLoopJoin:
		return r.buildJoin(n, p, st, live, hold)

	case plan.ExchangeMerge, plan.ExchangeUnion:
		return r.buildExchange(n, p, st, live)

	case plan.Limit:
		start := len(p.Ops)
		// One more burst, away from 0 (which stays unbounded).
		in, schema, err := r.build(n.Left, p, live, hold+cmp.Compare(hold, 0)*meterBurstRows)
		if err != nil {
			return nil, nil, err
		}
		// Everything below a Limit runs under early-out: flag it so the
		// stats reader knows EstRows is the pre-limit estimate.
		for _, o := range p.Ops[start:] {
			o.Limited = true
		}
		st.Detail = fmt.Sprintf("k=%d", n.Limit)
		return r.wrap(&Limit{In: in, N: int64(n.Limit), Life: p.Life}, st, p), schema, nil

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
		in, schema, err := r.build(n.Left, p, r.carried(liveCols{}, cols, n.Left), 0)
		if err != nil {
			return nil, nil, err
		}
		keys, aggs, outSchema, err := r.resolveGroup(schema, st)
		if err != nil {
			return nil, nil, err
		}
		if n.Op == plan.GroupSorted {
			return r.wrap(&GroupSorted{In: in, Keys: keys, Aggs: aggs}, st, p), outSchema, nil
		}
		return r.wrap(&GroupHash{In: in, Keys: keys, Aggs: aggs, Life: p.Life}, st, p), outSchema, nil
	}
	return nil, nil, fmt.Errorf("exec: unsupported plan operator %v", n.Op)
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
		spec := AggSpec{}
		switch a.Fn {
		case query.AggCount:
			spec.Fn = AggCount
		case query.AggSum:
			spec.Fn = AggSum
		case query.AggAvg:
			spec.Fn = AggAvg
		case query.AggMin:
			spec.Fn = AggMin
		case query.AggMax:
			spec.Fn = AggMax
		default:
			return nil, nil, nil, fmt.Errorf("exec: unsupported aggregate function %v", a.Fn)
		}
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
// to the two sides; positions are resolved once the inputs are compiled
// (resolveEqs). It returns the predicates, the index of the plan's
// primary predicate (the one the join algorithm evaluates) and its
// display detail. All predicates must hold on the output: the
// non-primary ones are the emit's residual (joinEmit.res).
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

// resolveEqs resolves the predicates' columns to positions in the
// compiled inputs' schemas.
func resolveEqs(eqs []joinEq, ls, rs []query.ColumnRef) error {
	for i := range eqs {
		e := &eqs[i]
		if e.l, e.r = colPos(ls, e.lc), colPos(rs, e.rc); e.l < 0 || e.r < 0 {
			return fmt.Errorf("exec: join predicate columns not in schemas")
		}
	}
	return nil
}

// residual is a merge or hash join's emit-time check: every crossing
// predicate but the primary one, which the join algorithm evaluates.
func residual(eqs []joinEq, primary int) []joinEq {
	if len(eqs) == 1 {
		return nil
	}
	return slices.Delete(slices.Clone(eqs), primary, primary+1)
}

// joinOutput returns the output schema of a join over inputs with
// schemas ls and rs, and its emit layout: the live columns of each side,
// narrow when that prunes something. A select * pipeline allocates no
// layout and keeps the two-copy left ++ right.
func joinOutput(live liveCols, ls, rs []query.ColumnRef) ([]query.ColumnRef, joinEmit) {
	schema := make([]query.ColumnRef, 0, len(ls)+len(rs))
	if live == nil {
		return append(append(schema, ls...), rs...), joinEmit{}
	}
	var emit joinEmit
	for i, c := range ls {
		if colPos(live, c) >= 0 {
			emit.lcols, schema = append(emit.lcols, i), append(schema, c)
		}
	}
	for i, c := range rs {
		if colPos(live, c) >= 0 {
			emit.rcols, schema = append(emit.rcols, i), append(schema, c)
		}
	}
	emit.narrow = len(schema) < len(ls)+len(rs)
	return schema, emit
}

// rightSide is a join's right input as joinRight compiled it: either the
// input's iterator or — adopted set — the dataset state standing in for
// it. An adopted input is a bare scan that never runs; its stats entry
// is registered in its place, and the join probes adopted.hash (a hash
// join: the dataset's resident build table) or reads adopted.rows (an
// exchange's merge join: an index view sorted on the merge key by
// construction).
type rightSide struct {
	it      Iterator
	schema  []query.ColumnRef
	adopted *bareScan
}

// joinRight compiles join n's right input, of which the join reads
// column key (eqs[primary].rc) and live is read above — the one place
// where both compilers (the exchange's passes inExchange) decide between
// running the input and adopting dataset state for it. Adopted state is
// the dataset's memory: the query materializes nothing and is charged
// nothing. A build table the memory limit has no room for is not
// adopted; the input is then compiled like any other.
func (r *Runner) joinRight(n *plan.Node, key query.ColumnRef, live liveCols, p *Pipeline, inExchange bool) (rt rightSide, err error) {
	var bare *bareScan
	if n.Op == plan.HashJoin || (inExchange && n.Op == plan.MergeJoin) {
		bare = r.bareScanRows(n.Right)
	}
	if bare != nil {
		rt.schema = bare.schema
		bare.key.col = colPos(bare.schema, key)
		if n.Op == plan.HashJoin {
			bare.hash = r.Dataset.buildTable(bare.key, bare.rows)
			bare.st.Resident = bare.hash != nil
		}
		if bare.hash != nil || (n.Op == plan.MergeJoin && bare.key.col == bare.leading) {
			rt.adopted = bare
			p.Ops = append(p.Ops, bare.st)
			return rt, nil
		}
	}
	rt.it, rt.schema, err = r.build(n.Right, p, live, 0)
	return rt, err
}

// compiledJoin is a join with both inputs compiled and its predicates
// resolved against their schemas.
type compiledJoin struct {
	eqs     []joinEq
	primary int
	ls      []query.ColumnRef // the left input's schema
	rightSide
}

// compileJoin is what the serial and the exchange compiler share of
// join n: its predicates (and display detail, into st), the live sets
// of its inputs, the left input — compiled by left, the one thing the
// two do differently — the right input, and the predicates' positions.
func (r *Runner) compileJoin(n *plan.Node, p *Pipeline, st *OpStats, live liveCols, inExchange bool,
	left func(liveCols) ([]query.ColumnRef, error)) (j compiledJoin, err error) {
	lrels := planRels(n.Left)
	if j.eqs, j.primary, st.Detail, err = r.joinPreds(n, lrels, planRels(n.Right)); err != nil {
		return j, err
	}
	liveL, liveR := joinLive(live, j.eqs, lrels)
	if j.ls, err = left(liveL); err != nil {
		return j, err
	}
	if j.rightSide, err = r.joinRight(n, j.eqs[j.primary].rc, liveR, p, inExchange); err != nil {
		return j, err
	}
	return j, resolveEqs(j.eqs, j.ls, j.schema)
}

func (r *Runner) buildJoin(n *plan.Node, p *Pipeline, st *OpStats, live liveCols, hold int) (Iterator, []query.ColumnRef, error) {
	var left Iterator
	j, err := r.compileJoin(n, p, st, live, false, func(live liveCols) (ls []query.ColumnRef, err error) {
		left, ls, err = r.build(n.Left, p, live, 1+meterBurstRows)
		return ls, err
	})
	if err != nil {
		return nil, nil, err
	}
	schema, emit := joinOutput(live, j.ls, j.schema)
	emit.alloc.window = max(hold, 0)
	key := j.eqs[j.primary]

	var it Iterator
	var out *joinEmit
	switch n.Op {
	case plan.MergeJoin:
		emit.res = residual(j.eqs, j.primary)
		mj := &MergeJoin{Left: left, Right: j.it, LeftKey: key.l, RightKey: key.r, Life: p.Life, emit: emit}
		it, out = mj, &mj.emit
	case plan.HashJoin:
		emit.res = residual(j.eqs, j.primary)
		hj := &HashJoin{Left: left, Right: j.it, LeftKey: key.l, RightKey: key.r, Life: p.Life,
			adopted: j.adopted, emit: emit}
		it, out = hj, &hj.emit
	default: // NestedLoopJoin
		nl := &NestedLoopJoin{Outer: left, Inner: j.it, Life: p.Life, Pred: allEqs(j.eqs), emit: emit}
		it, out = nl, &nl.emit
	}
	if hold < 0 {
		p.rootRing, p.rootSlack = &out.alloc, -hold
	}
	return r.wrap(it, st, p), schema, nil
}

// allEqs is the nested-loop join predicate: every equality holds.
func allEqs(eqs []joinEq) func(outer, inner Row) bool {
	return func(outer, inner Row) bool {
		for _, e := range eqs {
			if outer[e.l] != inner[e.r] {
				return false
			}
		}
		return true
	}
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
