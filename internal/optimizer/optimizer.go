// Package optimizer is a Lohman-style bottom-up dynamic-programming plan
// generator (the paper's §7 test bed): it enumerates connected subgraph
// pairs of the join graph, builds scan/sort/join plans with a
// Selinger-style cost model, and prunes dominated plans per relation
// subset. The order-optimization component is pluggable — either the
// paper's DFSM framework (O(1) contains/infer, one int per plan) or the
// Simmen et al. baseline (reduce-based contains, FD sets per plan) — so
// both can be measured inside the identical plan generator.
//
// The generator is split into two phases so repeated planning of one
// query amortizes everything that does not depend on the run: Prepare
// compiles the analysis into an immutable Prepared (order framework,
// cardinality estimates, join-graph bitsets), and Prepared.Run executes
// the dynamic programming using pooled per-run scratch (node arena, DP
// table, edge buffer). The scratch pool is process-wide, not
// per-statement: scratch carries nothing from one run to the next but
// capacity, so a statement planned for the first time reuses what any
// earlier statement grew. Run is safe to call from multiple goroutines;
// Optimize remains the one-shot convenience wrapper.
package optimizer

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"orderopt/internal/core"
	"orderopt/internal/order"
	"orderopt/internal/plan"
	"orderopt/internal/query"
	"orderopt/internal/simmen"
)

// Mode selects the order-optimization component.
type Mode uint8

const (
	// ModeDFSM uses the paper's framework (internal/core).
	ModeDFSM Mode = iota
	// ModeSimmen uses the Simmen et al. baseline (internal/simmen).
	ModeSimmen
)

func (m Mode) String() string {
	if m == ModeSimmen {
		return "simmen"
	}
	return "dfsm"
}

// Config tunes the plan generator.
type Config struct {
	Mode Mode
	// Enumerator selects the join-pair enumeration algorithm (the zero
	// value is EnumDPccp paired with the dense DP table; EnumNaive keeps
	// the reference DPsub path over the seed's map-backed table). The
	// linearized tier enumerates intervals instead and ignores it.
	Enumerator Enumerator
	// Strategy selects the planning tier: the exhaustive DP (the zero
	// value), the linearized heuristic DP, or auto, which resolves per
	// query at Prepare time (see linearize.go).
	Strategy Strategy
	// CoreOptions configures preparation in ModeDFSM.
	CoreOptions core.Options
	// SimmenCache enables the baseline's reduce cache (the paper's
	// tuned configuration).
	SimmenCache bool
	// DisableHashJoin removes hash joins from the search space (orders
	// matter more without them).
	DisableHashJoin bool
	// DisableNLJoin removes nested-loop joins from the search space.
	DisableNLJoin bool
	// DisableMergeJoin removes merge joins from the search space. With
	// order-producing scans also off (analyze without indexes) this
	// yields the order-oblivious baseline the runtime experiments
	// compare against: hash/NL joins only, grouping by hashing, one
	// sort at the very top for the ORDER BY.
	DisableMergeJoin bool
	// DisableOrderedGrouping removes the sorted-grouping candidates:
	// GROUP BY always plans as hash grouping (the order-oblivious
	// baseline's other half).
	DisableOrderedGrouping bool
	// MaxDOP, when > 1, adds parallel candidates to the final plans:
	// every parallelizable full-set plan is also considered wrapped in
	// an order-preserving ExchangeMerge and an order-destroying
	// ExchangeUnion at this degree of parallelism, priced by
	// plan.ExchangeCost — so "parallel + merge" competes with "serial +
	// order-preserved" on cost, per pipeline. 0 or 1 plans serial only.
	MaxDOP int
}

// DefaultConfig returns the configuration used by the experiments: all
// join operators enabled, full pruning, empty-ordering tracking on,
// Simmen cache on, adaptive strategy selection (exact within the
// exact-DP horizon, linearized beyond it).
func DefaultConfig(m Mode) Config {
	co := core.DefaultOptions()
	co.TrackEmptyOrdering = true
	co.MaxSimulationStates = 512
	return Config{Mode: m, CoreOptions: co, SimmenCache: true, Strategy: StrategyAuto}
}

// Result is the outcome of one optimization run, carrying the counters
// the §7 experiments report.
type Result struct {
	// Best is the cheapest final plan, deep-copied out of the run's
	// arena: it stays valid after the scratch is recycled.
	Best *plan.Node

	// PlansGenerated counts every plan operator constructed (the
	// paper's "#Plans": "the time to introduce one plan operator").
	PlansGenerated int64
	// PlansRetained counts plans surviving dominance pruning.
	PlansRetained int
	// CsgCmpPairs counts the connected-subgraph/complement pairs the
	// enumerator produced (unordered; each yields joins both ways).
	CsgCmpPairs int64
	// OrderMemBytes is the memory consumed by order-optimization
	// annotations: 4 bytes per generated plan plus the precomputed DFSM
	// tables for ModeDFSM, or the cumulative annotation bytes for
	// ModeSimmen.
	OrderMemBytes int64
	// DFSMBytes is the precomputed-table share of OrderMemBytes
	// (ModeDFSM only; the separate column of Figure 14).
	DFSMBytes int64

	// PrepTime is the one-time preparation cost of the Prepared this
	// run executed on (identical across runs of one Prepared).
	PrepTime time.Duration
	PlanTime time.Duration
	// Strategy is the planning tier that ran — the resolved strategy
	// (never StrategyAuto).
	Strategy Strategy
	// Stats holds the framework preparation statistics (ModeDFSM only).
	Stats *core.Stats
}

// Prepared is the immutable product of Prepare: everything about one
// analyzed query that does not change between optimization runs. It is
// safe for concurrent use; each Run checks private mutable scratch out
// of the package-level pool.
type Prepared struct {
	a   *query.Analysis
	g   *query.Graph
	cfg Config

	fw    *core.Framework // ModeDFSM; nil in ModeSimmen
	stats *core.Stats

	relCard []float64 // per relation, after base filters
	edgeSel []float64 // per edge, product over its predicates
	colDist [][]float64

	adj      []uint64 // per relation: mask of joined relations
	edgeMask []uint64 // per edge: mask of its two endpoint relations

	// strategy is the resolved planning tier (StrategyAuto is decided
	// here, once, so every Run of one Prepared uses the same tier).
	strategy Strategy
	linSeq   []int    // linearized relation sequence (linearized tier)
	linPre   []uint64 // linPre[i]: mask of the first i sequence relations

	// mergeable[e]: some predicate side of edge e is a DFSM column, so an
	// input can hold it (linearized tier under ModeDFSM, else nil).
	mergeable []bool

	prepTime time.Duration

	// sims recycles the Simmen baseline frameworks (ModeSimmen only):
	// the one piece of run state that is per statement, so it cannot
	// travel with the shared scratch.
	sims sync.Pool // of *simmen.Framework
}

// Analysis returns the analysis the query was prepared from.
func (p *Prepared) Analysis() *query.Analysis { return p.a }

// Graph returns the prepared join graph. It must not be mutated.
func (p *Prepared) Graph() *query.Graph { return p.g }

// Config returns the plan-generator configuration.
func (p *Prepared) Config() Config { return p.cfg }

// Stats returns the framework preparation statistics (nil in
// ModeSimmen).
func (p *Prepared) Stats() *core.Stats { return p.stats }

// Framework returns the prepared DFSM framework (nil in ModeSimmen).
func (p *Prepared) Framework() *core.Framework { return p.fw }

// Strategy returns the resolved planning tier (never StrategyAuto):
// what Config.Strategy fixed, or what the auto probe chose for this
// query at Prepare time.
func (p *Prepared) Strategy() Strategy { return p.strategy }

// Linearization returns the linearized relation sequence (nil when the
// exact tier runs). It must not be mutated.
func (p *Prepared) Linearization() []int { return p.linSeq }

// PrepTime returns the one-time preparation cost.
func (p *Prepared) PrepTime() time.Duration { return p.prepTime }

// optimizer is the per-run mutable scratch: the DP state one run needs.
// It belongs to no statement — every Run of every Prepared checks one
// out of the package-level scratch pool and binds it for the run — so a
// statement that is new to the process still plans on a warm arena and
// a warm DP table.
type optimizer struct {
	p *Prepared // bound for the run; nil while pooled

	// sim is the Simmen baseline instance (ModeSimmen only), borrowed
	// from p.sims for the run: its reduce cache and cloned interner are
	// per-statement state and stay with the Prepared. anns is the run's
	// annotation table: under ModeSimmen a plan node's State indexes it.
	sim  *simmen.Framework
	anns []*simmen.Annotation

	edgeBuf   []int // scratch for edgesBetween, reused per pair
	arena     plan.Arena
	dp        dpTable
	generated int64
	ccPairs   int64

	// lin runs the linearized tier: gated merge-join generation and plan
	// lists bounded to DefaultLinearizedBeam (the exact tier's are not).
	lin bool
}

// scratch recycles optimizers across all statements. There is no size
// knob: sync.Pool drops idle entries over two GC cycles, which bounds
// what a one-off 16-relation statement (a 2^16-entry table, a deep
// arena) leaves behind. Pooled scratch holds no *Prepared, and its
// arena and annotation table are cleared, so it pins no analysis or
// framework.
var scratch = sync.Pool{New: func() any { return new(optimizer) }}

// dpTable maps a relation-subset mask to its cost-sorted, undominated
// plan list. The optimized configuration indexes a dense slice directly
// by mask; beyond denseTableBits relations the 2^n table no longer pays
// and a pre-sized map takes over. Both enumerators plan over the same
// table: EnumNaive and EnumDPccp differ only in how they enumerate.
type dpTable struct {
	dense  [][]*plan.Node // this run's 1<<n window of slab; nil while sparse serves
	slab   [][]*plan.Node // grown to the largest 1<<n seen, lists keep their capacity
	sparse map[uint64][]*plan.Node
}

const denseTableBits = 16

// reset re-shapes the table in place for a run over n relations and
// empties every plan list the run can reach, keeping the backing arrays:
// steady-state runs append into recycled capacity, whichever statement
// grew it. Lists beyond the current window are neither read nor counted.
// hint sizes a first sparse map.
func (t *dpTable) reset(n, hint int) {
	t.dense = nil
	switch {
	case n <= denseTableBits:
		size := 1 << uint(n)
		if len(t.slab) < size {
			t.slab = append(t.slab, make([][]*plan.Node, size-len(t.slab))...)
		}
		t.dense = t.slab[:size]
		for i, l := range t.dense {
			t.dense[i] = l[:0]
		}
	case t.sparse == nil:
		t.sparse = make(map[uint64][]*plan.Node, hint)
	default:
		for k, l := range t.sparse {
			t.sparse[k] = l[:0]
		}
	}
}

func (t *dpTable) get(mask uint64) []*plan.Node {
	if t.dense != nil {
		return t.dense[mask]
	}
	return t.sparse[mask]
}

func (t *dpTable) set(mask uint64, list []*plan.Node) {
	if t.dense != nil {
		t.dense[mask] = list
	} else {
		t.sparse[mask] = list
	}
}

// retained counts plans surviving dominance pruning across the current
// run's subsets.
func (t *dpTable) retained() int {
	total := 0
	if t.dense != nil {
		for _, l := range t.dense {
			total += len(l)
		}
	} else {
		for _, l := range t.sparse {
			total += len(l)
		}
	}
	return total
}

// Prepare compiles the analyzed query under cfg into an immutable,
// concurrency-safe Prepared: the order framework (ModeDFSM), the
// cardinality and selectivity estimates, and the join-graph bitsets.
func Prepare(a *query.Analysis, cfg Config) (*Prepared, error) {
	if len(a.Graph.Relations) > 64 {
		// Relation subsets are uint64 masks throughout the DP; anything
		// bigger would truncate silently.
		return nil, fmt.Errorf("optimizer: %w", query.ErrTooManyRelations)
	}
	// Plan nodes track applied operators in a 64-bit mask (for the §5.6
	// sort-state replay). Queries with more FD sets than that — dense
	// join graphs far beyond the paper's sizes, a clique-20 carries 190
	// edge FD sets — degrade gracefully instead of failing: handles ≥ 64
	// are still inferred when their operator is applied, they just are
	// not replayed after a sort (the sorted stream then under-reports
	// derivable orderings, which costs sort opportunities, never
	// correctness).
	p := &Prepared{a: a, g: a.Graph, cfg: cfg}

	start := time.Now()
	switch cfg.Mode {
	case ModeDFSM:
		fw, err := a.Prepare(cfg.CoreOptions)
		if err != nil {
			return nil, fmt.Errorf("optimizer: %w", err)
		}
		p.fw = fw
		st := fw.Stats()
		p.stats = &st
	case ModeSimmen:
		// The baseline framework is mutable (reduce cache, counters):
		// runs borrow one from p.sims; see bind.
	default:
		return nil, fmt.Errorf("optimizer: unknown mode %d", cfg.Mode)
	}
	p.estimate()
	masks := p.g.EdgeMasks() // force the lazy build while still single-threaded
	p.adj = masks.Adj
	p.edgeMask = masks.Edge
	switch cfg.Strategy {
	case StrategyExact, StrategyLinearized:
		p.strategy = cfg.Strategy
	case StrategyAuto:
		p.strategy = p.chooseStrategy()
	default:
		return nil, fmt.Errorf("optimizer: unknown strategy %d", cfg.Strategy)
	}
	if p.strategy == StrategyLinearized {
		p.linSeq = p.linearize()
		p.linPre = make([]uint64, len(p.linSeq)+1)
		for i, r := range p.linSeq {
			p.linPre[i+1] = p.linPre[i] | 1<<uint(r)
		}
		if p.fw != nil {
			col := func(o order.ID) bool { return slices.Contains(p.fw.DFSM().Columns, o) }
			for _, sides := range a.EdgeOrders {
				p.mergeable = append(p.mergeable, slices.ContainsFunc(sides[0], col) || slices.ContainsFunc(sides[1], col))
			}
		}
	}
	p.prepTime = time.Since(start)
	return p, nil
}

// bind readies checked-out scratch for a run of p. Nothing a previous
// run — of any statement, finished or panicked — left behind survives
// it: counters, arena, tier flags and every reachable plan list are
// reset here, not trusted.
func (o *optimizer) bind(p *Prepared) {
	o.p = p
	o.generated, o.ccPairs = 0, 0
	o.clearPlans()
	o.sim = nil
	if p.cfg.Mode == ModeSimmen {
		o.sim, _ = p.sims.Get().(*simmen.Framework)
		if o.sim == nil {
			o.sim = simmen.New(p.a.Builder.Interner().Clone(), p.a.Builder.Registry(), p.cfg.SimmenCache)
		}
		o.sim.BytesAllocated = 0
		o.sim.ReduceCalls = 0
		o.sim.CacheHits = 0
	}
	n := len(p.g.Relations)
	o.lin = p.strategy == StrategyLinearized
	hint := 1 << denseTableBits
	if o.lin {
		// Only the O(n²) interval masks are ever populated.
		hint = n * (n + 3) / 2
	}
	o.dp.reset(n, hint)
}

// unbind strips the scratch of the statement it served before it goes
// back to the pool: the arena and the annotation table are cleared, the
// framework returns to its Prepared.
func (o *optimizer) unbind() {
	o.clearPlans()
	if o.sim != nil {
		o.p.sims.Put(o.sim)
		o.sim = nil
	}
	o.p = nil
}

// clearPlans drops every plan node and Simmen annotation a run made,
// keeping the capacity.
func (o *optimizer) clearPlans() {
	o.arena.Reset()
	clear(o.anns)
	o.anns = o.anns[:0]
}

// Run executes one optimization run on pooled scratch. Safe for
// concurrent use.
func (p *Prepared) Run() (*Result, error) {
	o := scratch.Get().(*optimizer)
	defer scratch.Put(o)
	return o.plan(p)
}

// plan runs p's dynamic programming on o, whatever o served before.
func (o *optimizer) plan(p *Prepared) (*Result, error) {
	res := &Result{PrepTime: p.prepTime, Stats: p.stats}
	// PlanTime covers binding too: for ModeSimmen's first run that
	// includes constructing the baseline framework and its interner
	// clone — real per-run work that warm runs amortize away.
	planStart := time.Now()
	o.bind(p)
	defer o.unbind()

	best, err := o.run()
	if err != nil {
		return nil, err
	}
	res.PlanTime = time.Since(planStart)
	res.Strategy = p.strategy
	res.Best = best.Clone() // detach from the pooled arena
	res.PlansGenerated = o.generated
	res.CsgCmpPairs = o.ccPairs
	res.PlansRetained = o.dp.retained()
	if p.cfg.Mode == ModeDFSM {
		res.DFSMBytes = int64(p.stats.PrecomputedBytes)
		res.OrderMemBytes = 4*o.generated + res.DFSMBytes
	} else {
		res.OrderMemBytes = o.sim.BytesAllocated
	}
	return res, nil
}

// Optimize plans the analyzed query under cfg: Prepare followed by one
// Run.
func Optimize(a *query.Analysis, cfg Config) (*Result, error) {
	p, err := Prepare(a, cfg)
	if err != nil {
		return nil, err
	}
	return p.Run()
}

// estimate precomputes per-relation filtered cardinalities, per-edge
// selectivities and column distinct counts.
func (p *Prepared) estimate() {
	p.relCard = make([]float64, len(p.g.Relations))
	p.colDist = make([][]float64, len(p.g.Relations))
	for i := range p.g.Relations {
		r := &p.g.Relations[i]
		card := float64(r.Table.Rows)
		for _, pr := range r.ConstPreds {
			card *= pr.DefaultSelectivity(r.Table)
		}
		if card < 1 {
			card = 1
		}
		p.relCard[i] = card
		dist := make([]float64, len(r.Table.Columns))
		for c := range r.Table.Columns {
			dist[c] = max(float64(r.Table.Columns[c].Distinct), 1)
		}
		p.colDist[i] = dist
	}
	p.edgeSel = make([]float64, len(p.g.Edges))
	for e := range p.g.Edges {
		sel := 1.0
		for _, pr := range p.g.Edges[e].Preds {
			sel /= max(p.colDist[pr.Left.Rel][pr.Left.Col], p.colDist[pr.Right.Rel][pr.Right.Col])
		}
		p.edgeSel[e] = sel
	}
}

// maskCard estimates the cardinality of joining all relations in mask
// (used by the per-run join costing and the Prepare-time linearization).
func (p *Prepared) maskCard(mask uint64) float64 {
	card := 1.0
	for m := mask; m != 0; m &= m - 1 {
		card *= p.relCard[bits.TrailingZeros64(m)]
	}
	for e, em := range p.edgeMask {
		if em&^mask == 0 { // both endpoints inside mask
			card *= p.edgeSel[e]
		}
	}
	if card < 1 {
		card = 1
	}
	return card
}

func (o *optimizer) run() (*plan.Node, error) {
	if o.p.strategy == StrategyLinearized {
		return o.runLinearized()
	}
	n := len(o.p.g.Relations)
	full := uint64(1)<<uint(n) - 1

	o.basePlans(n)

	// Joins over connected subgraph / complement pairs, emitted by the
	// configured enumerator in an order valid for dynamic programming.
	EnumeratePairs(o.p.cfg.Enumerator, n, o.p.adj, o.joinPair)
	if len(o.dp.get(full)) == 0 {
		return nil, fmt.Errorf("optimizer: no plan for relation set %b", full)
	}

	return o.finish(full)
}

// basePlans seeds the DP table with the single-relation scan plans.
func (o *optimizer) basePlans(n int) {
	for r := 0; r < n; r++ {
		mask := uint64(1) << uint(r)
		o.addPlan(mask, o.scanPlan(r, -1))
		for ix := range o.p.a.IndexOrders[r] {
			o.addPlan(mask, o.scanPlan(r, ix))
		}
	}
}

// joinPair consumes one csg-cmp pair emitted by the exact enumerators.
func (o *optimizer) joinPair(s1, s2 uint64) {
	o.ccPairs++
	o.joinLists(s1, s2, o.edgesBetween(s1, s2))
}

// joinLists joins every plan combination of the disjoint subsets s1 and
// s2 in both directions (each join operator here preserves its outer
// ordering); both inputs already have their final plan lists. The
// output cardinality depends only on the union mask, so it is estimated
// once per pair, not once per plan combination.
func (o *optimizer) joinLists(s1, s2 uint64, edges []int) {
	mask := s1 | s2
	out := o.p.maskCard(mask)
	for _, p1 := range o.dp.get(s1) {
		for _, p2 := range o.dp.get(s2) {
			o.emitJoins(mask, s1, p1, p2, edges, out)
			o.emitJoins(mask, s2, p2, p1, edges, out)
		}
	}
}

// edgesBetween collects the edges crossing the disjoint masks s1, s2
// into a reused scratch buffer (valid until the next call).
func (o *optimizer) edgesBetween(s1, s2 uint64) []int {
	out := o.edgeBuf[:0]
	for e, em := range o.p.edgeMask {
		if em&s1 != 0 && em&s2 != 0 {
			out = append(out, e)
		}
	}
	o.edgeBuf = out
	return out
}

// scanPlan builds a table scan (ix < 0) or index scan plan for relation r
// and applies the relation's selection FDs.
func (o *optimizer) scanPlan(r, ix int) *plan.Node {
	t := o.p.g.Relations[r].Table
	rows := float64(t.Rows)
	node := o.arena.New()
	*node = plan.Node{Rel: r, Card: o.p.relCard[r]}
	if ix < 0 {
		node.Op = plan.TableScan
		node.Cost = plan.ScanCost(rows)
		node.State = o.produce(order.EmptyID)
	} else {
		node.Op = plan.IndexScan
		node.Index = ix
		node.Cost = plan.IndexScanCost(rows, t.Indexes[ix].Clustered)
		node.State = o.produce(o.p.a.IndexOrders[r][ix])
	}
	if h := o.p.a.RelFD[r]; h >= 0 {
		if h < 64 {
			node.FDMask |= 1 << uint(h)
		}
		node.State = o.infer(node.State, h)
	}
	o.generated++
	return node
}

// applyEdges applies the FD sets of the given join edges to a state.
// Handles ≥ 64 do not fit the sort-replay mask and are only inferred
// here (see Prepare).
func (o *optimizer) applyEdges(n *plan.Node, edges []int) {
	for _, e := range edges {
		h := o.p.a.EdgeFD[e]
		if h < 0 {
			continue // edge beyond the analysis FD caps: no inference
		}
		if h < 64 {
			n.FDMask |= 1 << uint(h)
		}
		n.State = o.infer(n.State, h)
	}
}

// The five order operations below are the run's route to the order
// component: one table lookup each under ModeDFSM; under ModeSimmen a
// State indexes o.anns, and each new state appends an annotation.

// produce is the state of a stream emitting ordering ord from scratch.
func (o *optimizer) produce(ord order.ID) core.State {
	if o.p.fw != nil {
		return o.p.fw.Produce(ord)
	}
	return o.annotate(o.sim.Produce(ord))
}

// infer is state s after an operator with FD handle h is applied.
func (o *optimizer) infer(s core.State, h core.FDHandle) core.State {
	if o.p.fw != nil {
		return o.p.fw.Infer(s, h)
	}
	return o.annotate(o.sim.Infer(o.anns[s], o.p.a.Sets[h]))
}

// sort is the state of p's stream after sorting it to ord.
func (o *optimizer) sort(p *plan.Node, ord order.ID) core.State {
	if o.p.fw != nil {
		return o.p.fw.SortMask(ord, p.FDMask)
	}
	return o.annotate(o.sim.Sort(o.anns[p.State], ord))
}

// contains reports whether a stream in state s satisfies ord.
func (o *optimizer) contains(s core.State, ord order.ID) bool {
	if o.p.fw != nil {
		return o.p.fw.Contains(s, ord)
	}
	return o.sim.Contains(o.anns[s], ord)
}

// dominates reports whether a makes b redundant: no more expensive and at
// least as much order information.
func (o *optimizer) dominates(a, b *plan.Node) bool {
	if a.Cost > b.Cost {
		return false
	}
	if o.p.fw != nil {
		return o.p.fw.SubsetOf(b.State, a.State)
	}
	return o.sim.Dominates(o.anns[a.State], o.anns[b.State])
}

// annotate enters a Simmen annotation into the run's table.
func (o *optimizer) annotate(a *simmen.Annotation) core.State {
	o.anns = append(o.anns, a)
	return core.State(len(o.anns) - 1)
}

// sortPlan wraps p in a sort to ord (no-op test is the caller's job).
func (o *optimizer) sortPlan(p *plan.Node, ord order.ID) *plan.Node {
	n := o.arena.New()
	*n = plan.Node{
		Op: plan.Sort, Left: p, SortOrd: ord,
		Cost: p.Cost + plan.SortCost(p.Card),
		Card: p.Card, FDMask: p.FDMask,
	}
	n.State = o.sort(p, ord)
	o.generated++
	return n
}

// emitJoins generates the join candidates for (p1 ⋈ p2) over edges and
// offers them to dp[mask]. p1 is the outer/left input covering the
// relations in s1; out is the pair's output cardinality estimate.
func (o *optimizer) emitJoins(mask, s1 uint64, p1, p2 *plan.Node, edges []int, out float64) {
	join := func(op plan.Op, left, right *plan.Node, opCost float64, edge, pred int) {
		if o.lin {
			// Cost-based fast rejection before any node is built: with a
			// saturated beam, a candidate no cheaper than the list's last
			// entry can neither enter nor dominate anything.
			if list := o.dp.get(mask); len(list) >= DefaultLinearizedBeam &&
				left.Cost+right.Cost+opCost >= list[DefaultLinearizedBeam-1].Cost {
				return
			}
		}
		n := o.arena.New()
		*n = plan.Node{
			Op: op, Left: left, Right: right, Edge: edge, Pred: pred,
			Cost:   left.Cost + right.Cost + opCost,
			Card:   out,
			FDMask: left.FDMask | right.FDMask,
			// All join operators here preserve the outer (left/probe)
			// input's ordering; the edge equations then widen it.
			State: left.State,
		}
		o.applyEdges(n, edges)
		o.generated++
		o.addPlan(mask, n)
	}

	if !o.p.cfg.DisableNLJoin {
		join(plan.NestedLoopJoin, p1, p2, plan.NestedLoopCost(p1.Card, p2.Card, out), edges[0], 0)
	}
	if !o.p.cfg.DisableHashJoin {
		join(plan.HashJoin, p1, p2, plan.HashJoinCost(p1.Card, p2.Card, out), edges[0], 0)
	}

	if o.p.cfg.DisableMergeJoin {
		return
	}

	// Merge joins: one candidate per equality predicate, sorting inputs
	// that are not already suitably ordered. The linearized tier only
	// considers predicates whose outer input already delivers its side's
	// order — on the dense graphs that tier serves, generating sorting
	// merges per crossing predicate (a clique split crosses dozens)
	// would dominate the runtime while hash and nested-loop joins cover
	// the no-order-to-exploit case, and an inner-only ordering is picked
	// up by the mirrored emitJoins call with the inputs swapped.
	for _, e := range edges {
		if o.p.mergeable != nil && !o.p.mergeable[e] {
			continue // no input holds any side's order
		}
		sides := &o.p.a.EdgeOrders[e]
		for pi, pred := range o.p.g.Edges[e].Preds {
			lOrd, rOrd := sides[0][pi], sides[1][pi]
			// Align predicate sides with (p1, p2).
			if s1&(1<<uint(pred.Left.Rel)) == 0 {
				lOrd, rOrd = rOrd, lOrd
			}
			lHas := o.contains(p1.State, lOrd)
			if o.lin && !lHas {
				continue
			}
			left, right := p1, p2
			if !lHas {
				left = o.sortPlan(left, lOrd)
			}
			if !o.contains(p2.State, rOrd) {
				right = o.sortPlan(right, rOrd)
			}
			join(plan.MergeJoin, left, right, plan.MergeJoinCost(left.Card, right.Card, out), e, pi)
		}
	}
}

// addPlan offers a candidate to the subset's plan list with dominance
// pruning. Lists are kept sorted by cost: only the prefix of entries no
// more expensive than the candidate can dominate it (scanning stops at
// the first costlier entry), and only the tail from the first equal-cost
// entry can be dominated by it. The linearized tier additionally bounds
// each list to the beam width, keeping the cheapest plans.
func (o *optimizer) addPlan(mask uint64, cand *plan.Node) {
	list := o.dp.get(mask)
	if o.lin && len(list) >= DefaultLinearizedBeam && cand.Cost >= list[DefaultLinearizedBeam-1].Cost {
		return // saturated beam: no cheaper than the last kept plan
	}
	t := len(list) // insertion point: first entry with cost ≥ cand's
	for i, q := range list {
		if q.Cost >= cand.Cost {
			t = i
			break
		}
		if o.dominates(q, cand) {
			return
		}
	}
	for i := t; i < len(list) && list[i].Cost == cand.Cost; i++ {
		if o.dominates(list[i], cand) {
			return
		}
	}
	w := t
	for i := t; i < len(list); i++ {
		if !o.dominates(cand, list[i]) {
			list[w] = list[i]
			w++
		}
	}
	list = append(list[:w], nil)
	copy(list[t+1:], list[t:])
	list[t] = cand
	if o.lin && len(list) > DefaultLinearizedBeam {
		list = list[:DefaultLinearizedBeam]
	}
	o.dp.set(mask, list)
}

// finish applies GROUP BY and ORDER BY on the full-set plans and returns
// the cheapest final plan.
func (o *optimizer) finish(full uint64) (*plan.Node, error) {
	var best *plan.Node
	consider := func(p *plan.Node) {
		if best == nil || p.Cost < best.Cost {
			best = p
		}
	}
	for _, p := range o.dp.get(full) {
		for _, q := range o.finishOne(p) {
			consider(q)
		}
	}
	if best == nil {
		return nil, fmt.Errorf("optimizer: no final plan")
	}
	return best, nil
}

func (o *optimizer) finishOne(p *plan.Node) []*plan.Node {
	cands := []*plan.Node{p}
	// Exchange candidates go under the grouping/ordering finishing:
	// parallelism covers the join pipeline, and any Sort or Group the
	// query still needs lands above the exchange (a Sort inside a
	// morsel segment would break the order-restriction argument).
	if dop := o.p.cfg.MaxDOP; dop > 1 {
		if spine, ok := parallelSpineCost(p); ok {
			shared := p.Cost - spine
			for _, op := range [...]plan.Op{plan.ExchangeMerge, plan.ExchangeUnion} {
				n := o.arena.New()
				*n = plan.Node{
					Op: op, Left: p, DOP: dop,
					Cost:   plan.ExchangeCost(op, spine, shared, p.Card, dop),
					Card:   p.Card,
					FDMask: p.FDMask,
					// ExchangeMerge is order-preserving: workers
					// reassemble in morsel order, reproducing the
					// serial row sequence. ExchangeUnion is not.
					State: p.State,
				}
				if op == plan.ExchangeUnion {
					n.State = o.produce(order.EmptyID)
				}
				o.generated++
				cands = append(cands, n)
			}
		}
	}
	if gOrd := o.p.a.GroupByOrd; gOrd != order.EmptyID {
		var grouped []*plan.Node
		gcard := o.groupCard(p.Card)
		for _, c := range cands {
			switch {
			case o.p.cfg.DisableOrderedGrouping:
				grouped = append(grouped, o.groupNode(c, plan.GroupHash, gcard))
			case o.contains(c.State, gOrd):
				grouped = append(grouped, o.groupNode(c, plan.GroupSorted, gcard))
			default:
				grouped = append(grouped,
					o.groupNode(o.sortPlan(c, gOrd), plan.GroupSorted, gcard),
					o.groupNode(c, plan.GroupHash, gcard))
			}
		}
		cands = grouped
	}
	if o.p.a.OrderByOrd != order.EmptyID {
		var ordered []*plan.Node
		for _, c := range cands {
			if o.contains(c.State, o.p.a.OrderByOrd) {
				ordered = append(ordered, c)
			} else {
				ordered = append(ordered, o.sortPlan(c, o.p.a.OrderByOrd))
			}
		}
		cands = ordered
	}
	if k := o.p.a.Graph.Limit; o.p.a.Graph.Limited() {
		// Top-k: every candidate is re-priced for producing only k rows
		// (plan.LimitedCost) — this is where an order-satisfying pipeline
		// (streaming top, nearly fully discounted) beats a full-sort plan
		// (pays everything below the Sort) automatically.
		limited := make([]*plan.Node, 0, len(cands))
		for _, c := range cands {
			n := o.arena.New()
			card := float64(k)
			if c.Card < card {
				card = c.Card
			}
			*n = plan.Node{
				Op: plan.Limit, Left: c, Limit: k,
				Cost:   plan.LimitedCost(c, float64(k)) + plan.LimitCost(float64(k)),
				Card:   card,
				FDMask: c.FDMask,
				// A k-prefix of the stream keeps every order/FD property
				// the stream had.
				State: c.State,
			}
			o.generated++
			limited = append(limited, n)
		}
		cands = limited
	}
	return cands
}

// parallelSpineCost splits a join tree's cumulative cost into the part
// a morsel worker executes per morsel (the left spine: driving scan,
// probe work, merge advances) and the part an exchange executes once at
// setup (right-hand subtrees and hash builds). It reports ok=false when
// the tree is not parallelizable: the left spine must run through joins
// only, down to a single scan leaf — a Sort on the spine would break
// the exchange's order-restriction argument.
func parallelSpineCost(p *plan.Node) (spine float64, ok bool) {
	n := p
	for {
		switch n.Op {
		case plan.TableScan, plan.IndexScan:
			return spine + n.Cost, true
		case plan.MergeJoin, plan.HashJoin, plan.NestedLoopJoin:
			op := n.Cost - n.Left.Cost - n.Right.Cost
			if n.Op == plan.HashJoin {
				// The build table is built once and shared; only the
				// probe work parallelizes.
				op -= n.Right.Card * plan.CHashBuild
			}
			spine += op
			n = n.Left
		default:
			return 0, false
		}
	}
}

func (o *optimizer) groupCard(in float64) float64 {
	card := 1.0
	for _, c := range o.p.g.GroupBy {
		card *= o.p.colDist[c.Rel][c.Col]
	}
	if card > in {
		card = in
	}
	if card < 1 {
		card = 1
	}
	return card
}

func (o *optimizer) groupNode(in *plan.Node, op plan.Op, card float64) *plan.Node {
	sorted := op == plan.GroupSorted
	n := o.arena.New()
	*n = plan.Node{
		Op: op, Left: in,
		Cost: in.Cost + plan.GroupCost(in.Card, sorted),
		Card: card, FDMask: in.FDMask, State: in.State,
	}
	// Sorted grouping preserves the input ordering; hash grouping emits
	// its groups unordered.
	if !sorted {
		n.State = o.produce(order.EmptyID)
	}
	o.generated++
	return n
}
