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
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"orderopt/internal/core"
	"orderopt/internal/freelist"
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
	// Enumerator selects the join-pair enumeration algorithm: the zero
	// value is EnumDPccp, EnumNaive the reference DPsub enumeration. Both
	// plan over the same dpTable. The linearized tier enumerates
	// intervals instead and ignores it.
	Enumerator Enumerator
	// Strategy selects the planning tier: the exhaustive DP (the zero
	// value), the linearized heuristic DP, or auto, which resolves per
	// query at Prepare time (see linearize.go).
	Strategy Strategy
	// CoreOptions configures preparation in ModeDFSM.
	CoreOptions core.Options
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
	// an order-preserving ExchangeMerge at this degree of parallelism,
	// priced by plan.ExchangeCost and carrying its child's state — so
	// "parallel" competes with "serial" on cost, per pipeline, with the
	// same orders either way. 0 or 1 plans serial only.
	MaxDOP int
}

// DefaultConfig returns the configuration used by the experiments: all
// join operators enabled, full pruning, empty-ordering tracking on,
// adaptive strategy selection (exact within the exact-DP horizon,
// linearized beyond it).
func DefaultConfig(m Mode) Config {
	co := core.DefaultOptions()
	co.TrackEmptyOrdering = true
	co.MaxSimulationStates = 512
	return Config{Mode: m, CoreOptions: co, Strategy: StrategyAuto}
}

// Result is the outcome of one optimization run, carrying the counters
// the §7 experiments report.
type Result struct {
	// Best is the cheapest final plan, deep-copied out of the run's
	// arena: it stays valid after the scratch is recycled.
	Best *plan.Node

	// PlansGenerated counts every plan operator generated (the paper's
	// "#Plans": "the time to introduce one plan operator"), whether or
	// not it enters a plan list; a Sort under a merge-join candidate
	// counts once per candidate it serves. Join candidates are counted
	// per csg-cmp pair (count), priced or not (sortEntry).
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
	// travel with the shared scratch. It is a sync.Pool, not a
	// freelist.List: a List registers itself with the GC ticker forever
	// on its first Put, so one per statement would pin every statement
	// a process ever prepared.
	sims sync.Pool // of *simmen.Framework
}

// Graph returns the prepared join graph. It must not be mutated.
func (p *Prepared) Graph() *query.Graph { return p.g }

// Stats returns the framework preparation statistics (nil in
// ModeSimmen).
func (p *Prepared) Stats() *core.Stats { return p.stats }

// Framework returns the prepared DFSM framework (nil in ModeSimmen).
func (p *Prepared) Framework() *core.Framework { return p.fw }

// Strategy returns the resolved planning tier (never StrategyAuto):
// what Config.Strategy fixed, or what the auto probe chose for this
// query at Prepare time.
func (p *Prepared) Strategy() Strategy { return p.strategy }

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
	nodes     int   // arena nodes handed out this run
	priced    int64 // join candidates priced and offered (see prune)

	// preds and sorts are joinLists' per-pair table, reused across pairs:
	// the pair's merge predicates, and per side one row per input plan —
	// the plan as it is, then its standing for each predicate.
	preds []mergePred
	sorts [2][]sortEntry
	// rows and has summarize each side's table: per row its use, per
	// column the rows that hold its order as is.
	rows [2][]rowUse
	has  [2][]int

	// floor is the same-state floor of an emitJoins call (see offer) or
	// of a sortTable column (sortEntry.live).
	floor []offered
	// final holds finishOne's candidates.
	final []*plan.Node

	// lin runs the linearized tier: gated merge-join generation, and
	// walkIntervals bounds each finished interval's plan list to
	// DefaultLinearizedBeam (the exact tier's are not bounded).
	lin bool
	// prune skips the join candidates of inner entries that are not
	// lead and outer entries that are not live (see sortEntry): ModeDFSM
	// only.
	prune bool
}

// scratch recycles optimizers across all statements. There is no size
// knob: the list drops what stayed idle through a GC cycle at the next,
// which bounds what a one-off 16-relation statement (a 2^16-entry
// table, a deep arena) leaves behind. Pooled scratch holds no
// *Prepared, and its arena and annotation table are cleared, so it pins
// no analysis or framework.
var scratch freelist.List[optimizer]

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
	o.generated, o.ccPairs, o.nodes, o.priced = 0, 0, 0, 0
	o.clearPlans()
	o.sim = nil
	if p.cfg.Mode == ModeSimmen {
		o.sim, _ = p.sims.Get().(*simmen.Framework)
		if o.sim == nil {
			// The reduce cache is on: the paper's tuned baseline.
			o.sim = simmen.New(p.a.Builder.Interner().Clone(), p.a.Builder.Registry(), true)
		}
		o.sim.BytesAllocated = 0
		o.sim.ReduceCalls = 0
		o.sim.CacheHits = 0
	}
	n := len(p.g.Relations)
	o.lin = p.strategy == StrategyLinearized
	o.prune = p.fw != nil
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
	o := scratch.Get()
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
		o.scanPlan(mask, r, -1)
		for ix := range o.p.a.IndexOrders[r] {
			o.scanPlan(mask, r, ix)
		}
	}
}

// joinPair consumes one csg-cmp pair emitted by the exact enumerators.
func (o *optimizer) joinPair(s1, s2 uint64) {
	o.ccPairs++
	o.joinLists(s1, s2, o.edgesBetween(s1, s2))
}

// mergePred is one equality predicate of a csg-cmp pair a merge join
// can run on: ord[k] is the order side k's input must deliver (side 0
// covers s1, side 1 s2).
type mergePred struct {
	edge, pred int
	ord        [2]order.ID
}

// sortEntry is input plan p's standing in the per-pair table, as it is
// (a row's first entry, has always set) or for one merge predicate:
// whether it already delivers its side's order, and the cost and state
// of the input a join reads (sorted to ord when it does not; under
// ModeSimmen the sorted state is left to join). Under ModeDFSM, joined
// is the state of a join with this input outer: the pair's edges applied.
//
// A join candidate's state is its outer's joined state, and its cost is
// outer + inner + an operator cost equal for every plan of a mask. So it
// repeats, at no lower cost, the state of a candidate offered before it
// (dp[mask] already holds a plan that costs no more and covers it) when
// its inner entry is not lead — strictly cheaper than every earlier
// row's in its column — or its outer entry is not live: an earlier row
// of its column reached the same joined state at no higher cost, as an
// outer (the linearized tier's sorted entries, which its merge gate
// keeps from being outers, are never live). Both are otherwise always
// set when the run does not prune.
type sortEntry struct {
	p               *plan.Node
	has, lead, live bool
	ord             order.ID
	cost            float64
	state, joined   core.State
}

// rowUse is what a row of the per-pair table can be: an inner (some entry
// leads) or an outer (some is live).
type rowUse struct{ inner, outer bool }

// offered is one entry of the same-state floor.
type offered struct {
	state core.State
	cost  float64
}

// pairJoin is what emitJoins reads about a csg-cmp pair: the union
// mask, the crossing edges, the output cardinality, and the FD mask the
// edges add. All of it depends on the pair, not on the plans joined.
type pairJoin struct {
	mask   uint64
	edges  []int
	out    float64
	fdMask uint64
}

// joinLists joins every plan combination of the disjoint subsets s1 and
// s2 in both directions (each join operator here preserves its outer
// ordering), pricing only those of a live outer and a leading inner
// entry; both inputs already have their final plan lists. Whatever
// depends on the pair alone — the output cardinality, the edges' FD
// mask, the merge predicates — is computed once per pair, and what
// depends on one input plan — whether it holds a merge predicate's
// order, what sorting it costs, and the state a join with it outer ends
// in — once per plan (a sort once per column), not per plan combination.
func (o *optimizer) joinLists(s1, s2 uint64, edges []int) {
	pj := pairJoin{mask: s1 | s2, edges: edges, out: o.p.maskCard(s1 | s2)}
	for _, e := range edges {
		if h := o.p.a.EdgeFD[e]; h >= 0 && h < 64 {
			pj.fdMask |= 1 << uint(h)
		}
	}
	l1, l2 := o.dp.get(s1), o.dp.get(s2)
	o.mergePreds(s1, edges)
	t1, t2 := o.sortTable(0, l1, edges), o.sortTable(1, l2, edges)
	o.count([2]int{len(l1), len(l2)})
	np := len(o.preds) + 1
	u1, u2 := o.rows[0], o.rows[1]
	for i := range l1 {
		r1 := t1[i*np : (i+1)*np]
		for j := range l2 {
			r2 := t2[j*np : (j+1)*np]
			if u1[i].outer && u2[j].inner {
				o.emitJoins(&pj, r1, r2)
			}
			if u2[j].outer && u1[i].inner {
				o.emitJoins(&pj, r2, r1)
			}
		}
	}
}

// mergePreds collects the pair's merge predicates into o.preds, each
// predicate's orders aligned with the pair's sides. The linearized tier
// skips edges no input can hold an order of (Prepared.mergeable).
func (o *optimizer) mergePreds(s1 uint64, edges []int) {
	o.preds = o.preds[:0]
	if o.p.cfg.DisableMergeJoin {
		return
	}
	for _, e := range edges {
		if o.p.mergeable != nil && !o.p.mergeable[e] {
			continue
		}
		sides := &o.p.a.EdgeOrders[e]
		for pi, pred := range o.p.g.Edges[e].Preds {
			ord := [2]order.ID{sides[0][pi], sides[1][pi]}
			if s1&(1<<uint(pred.Left.Rel)) == 0 {
				ord[0], ord[1] = ord[1], ord[0]
			}
			o.preds = append(o.preds, mergePred{edge: e, pred: pi, ord: ord})
		}
	}
}

// sortTable fills side k's rows of the per-pair table for the plans in
// list, with o.rows[k] and o.has[k]. Every plan of a mask has the same
// card and FD mask (TestSortTableMatchesPerPlan), so a column's sorted
// entries share the state, joined state and Sort cost of its first one.
// Under ModeSimmen the sorted and joined states are left out: the
// baseline sorts and infers at each use (see join), because its memory
// column counts every annotation either makes.
func (o *optimizer) sortTable(k int, list []*plan.Node, edges []int) []sortEntry {
	np := len(o.preds) + 1
	t := slices.Grow(o.sorts[k][:0], len(list)*np)[:len(list)*np]
	o.rows[k] = slices.Grow(o.rows[k][:0], len(list))[:len(list)]
	clear(o.rows[k])
	o.has[k] = o.has[k][:0]
	for c := range np {
		var sorted *sortEntry
		least, has, sortCost := math.Inf(1), 0, 0.0
		o.floor = o.floor[:0]
		for i, p := range list {
			e := &t[i*np+c]
			switch {
			case c == 0:
				*e = sortEntry{p: p, has: true, cost: p.Cost, state: p.State}
				if o.p.fw != nil {
					e.joined = o.applyEdges(p.State, edges)
				}
				has++
			case o.contains(p.State, o.preds[c-1].ord[k]):
				*e = t[i*np]
				has++
			case sorted == nil:
				sortCost = plan.SortCost(p.Card)
				*e = sortEntry{p: p, cost: p.Cost + sortCost, ord: o.preds[c-1].ord[k]}
				if o.p.fw != nil {
					e.state = o.p.fw.SortMask(e.ord, p.FDMask)
					e.joined = o.applyEdges(e.state, edges)
				}
				sorted = e
			default:
				*e = *sorted
				e.p, e.cost = p, p.Cost+sortCost
			}
			e.lead = !o.prune || e.cost < least
			e.live = (e.has || !o.lin) && (!o.prune || !o.floored(e.joined, e.cost))
			least = min(least, e.cost)
			u := &o.rows[k][i]
			u.inner = u.inner || e.lead
			u.outer = u.outer || e.live
		}
		o.has[k] = append(o.has[k], has)
	}
	o.sorts[k] = t
	return t
}

// count adds the pair's join candidates and their Sorts to
// PlansGenerated, n being the sides' plan counts: per column and
// direction, each outer row meets every inner row (NL and hash joins in
// column 0, a merge join in each other) and a sorted input adds a Sort
// per row it meets. The linearized tier's outers hold the order.
func (o *optimizer) count(n [2]int) {
	for _, off := range [...]bool{o.p.cfg.DisableNLJoin, o.p.cfg.DisableHashJoin} {
		if !off {
			o.generated += int64(2 * n[0] * n[1])
		}
	}
	for c := 1; c <= len(o.preds); c++ {
		for k := range 2 {
			outer, has, inner := n[k], o.has[k][c], n[1-k]
			if o.lin {
				outer = has
			}
			o.generated += int64(outer*(2*inner-o.has[1-k][c]) + (outer-has)*inner)
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

// scanPlan prices a table scan (ix < 0) or index scan plan for
// relation r, applies the relation's selection FDs, and offers it to
// dp[mask].
func (o *optimizer) scanPlan(mask uint64, r, ix int) {
	t := o.p.g.Relations[r].Table
	rows := float64(t.Rows)
	scan := plan.Node{Rel: r, Card: o.p.relCard[r]}
	if ix < 0 {
		scan.Op = plan.TableScan
		scan.Cost = plan.ScanCost(rows)
		scan.State = o.produce(order.EmptyID)
	} else {
		scan.Op = plan.IndexScan
		scan.Index = ix
		scan.Cost = plan.IndexScanCost(rows, t.Indexes[ix].Clustered)
		scan.State = o.produce(o.p.a.IndexOrders[r][ix])
	}
	if h := o.p.a.RelFD[r]; h >= 0 {
		if h < 64 {
			scan.FDMask |= 1 << uint(h)
		}
		scan.State = o.infer(scan.State, h)
	}
	o.generated++
	if at, ok := o.admit(mask, scan.Cost, scan.State); ok {
		n := o.node()
		*n = scan
		o.insert(mask, at, n)
	}
}

// applyEdges applies the FD sets of the given join edges to a state.
// Handles ≥ 64 do not fit the sort-replay mask (pairJoin.fdMask leaves
// them out) and are only inferred here (see Prepare).
func (o *optimizer) applyEdges(s core.State, edges []int) core.State {
	for _, e := range edges {
		if h := o.p.a.EdgeFD[e]; h >= 0 { // < 0: edge beyond the analysis FD caps
			s = o.infer(s, h)
		}
	}
	return s
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

// covers reports whether state a carries at least the order information
// of state b. A plan no more expensive than another whose state it
// covers makes that other plan redundant (see admit).
func (o *optimizer) covers(a, b core.State) bool {
	if o.p.fw != nil {
		return o.p.fw.SubsetOf(b, a)
	}
	return o.sim.Dominates(o.anns[a], o.anns[b])
}

// annotate enters a Simmen annotation into the run's table.
func (o *optimizer) annotate(a *simmen.Annotation) core.State {
	o.anns = append(o.anns, a)
	return core.State(len(o.anns) - 1)
}

// sortPlan wraps p in a sort to ord (no-op test is the caller's job).
func (o *optimizer) sortPlan(p *plan.Node, ord order.ID) *plan.Node {
	o.generated++
	return o.sortNode(p, ord, p.Cost+plan.SortCost(p.Card), o.sort(p, ord))
}

// sortNode builds the Sort of p to ord, already priced.
func (o *optimizer) sortNode(p *plan.Node, ord order.ID, cost float64, s core.State) *plan.Node {
	n := o.node()
	*n = plan.Node{Op: plan.Sort, Left: p, SortOrd: ord, Cost: cost, Card: p.Card, FDMask: p.FDMask, State: s}
	return n
}

// node hands out an arena node; only admitted candidates and the final
// plans get one.
func (o *optimizer) node() *plan.Node {
	o.nodes++
	return o.arena.New()
}

// emitJoins prices the join candidates of the per-pair table's rows r1
// (the outer/left input) and r2 whose outer entry is live and inner
// entry leads, and offers them to dp[pj.mask].
func (o *optimizer) emitJoins(pj *pairJoin, r1, r2 []sortEntry) {
	o.floor = o.floor[:0]
	c1, c2 := r1[0].p.Card, r2[0].p.Card
	if r1[0].live && r2[0].lead {
		if !o.p.cfg.DisableNLJoin {
			o.join(pj, plan.NestedLoopJoin, &r1[0], &r2[0], plan.NestedLoopCost(c1, c2, pj.out), pj.edges[0], 0)
		}
		if !o.p.cfg.DisableHashJoin {
			o.join(pj, plan.HashJoin, &r1[0], &r2[0], plan.HashJoinCost(c1, c2, pj.out), pj.edges[0], 0)
		}
	}

	// Merge joins: one candidate per equality predicate, sorting inputs
	// that are not already suitably ordered. The linearized tier only
	// considers predicates whose outer input already delivers its side's
	// order — on the dense graphs that tier serves, generating sorting
	// merges per crossing predicate (a clique split crosses dozens)
	// would dominate the runtime while hash and nested-loop joins cover
	// the no-order-to-exploit case, and an inner-only ordering is picked
	// up by the mirrored emitJoins call with the inputs swapped.
	for i := range o.preds {
		l, r := &r1[i+1], &r2[i+1]
		if !l.live || !r.lead || o.lin && !l.has {
			continue
		}
		mp := &o.preds[i]
		o.join(pj, plan.MergeJoin, l, r, plan.MergeJoinCost(c1, c2, pj.out), mp.edge, mp.pred)
	}
}

// join prices the candidate l ⋈ r and builds it — its Sorts included —
// only if dp[pj.mask] admits it. ModeSimmen sorts an input at each use
// (see sortTable).
func (o *optimizer) join(pj *pairJoin, op plan.Op, l, r *sortEntry, opCost float64, edge, pred int) {
	for _, in := range [2]*sortEntry{l, r} {
		if !in.has && o.p.fw == nil {
			in.state = o.sort(in.p, in.ord)
		}
	}
	o.priced++
	cost := l.cost + r.cost + opCost
	// All join operators here preserve the outer (left/probe) input's
	// ordering; the edge equations then widen it. Under ModeDFSM the
	// per-pair table already did (sortEntry.joined).
	state := l.joined
	if o.p.fw == nil {
		state = o.applyEdges(l.state, pj.edges)
	}
	at, ok := o.offer(pj.mask, cost, state)
	if !ok {
		return
	}
	left, right := o.input(l), o.input(r)
	n := o.node()
	*n = plan.Node{
		Op: op, Left: left, Right: right, Edge: edge, Pred: pred,
		Cost: cost, Card: pj.out, State: state,
		FDMask: left.FDMask | right.FDMask | pj.fdMask,
	}
	o.insert(pj.mask, at, n)
}

// input builds an admitted candidate's input: the plan itself, or its
// Sort.
func (o *optimizer) input(in *sortEntry) *plan.Node {
	if in.has {
		return in.p
	}
	return o.sortNode(in.p, in.ord, in.cost, in.state)
}

// offer is admit behind the same-state floor of one emitJoins call: a
// candidate whose state an earlier one reached at no higher cost cannot
// be admitted, since dp[mask] still holds a plan at least as cheap that
// covers it (the earlier one, or what rejected or dropped it).
func (o *optimizer) offer(mask uint64, cost float64, state core.State) (int, bool) {
	if o.floored(state, cost) {
		return 0, false
	}
	return o.admit(mask, cost, state)
}

// floored reports whether o.floor holds state at no higher cost, and
// enters or lowers the state's floor otherwise.
func (o *optimizer) floored(state core.State, cost float64) bool {
	i := slices.IndexFunc(o.floor, func(f offered) bool { return f.state == state })
	if i < 0 {
		o.floor = append(o.floor, offered{state, cost})
		return false
	}
	f := &o.floor[i]
	floored := cost >= f.cost
	f.cost = min(f.cost, cost)
	return floored
}

// admit is the dominance pre-check for a candidate of the given cost and
// state offered to dp[mask]: its insertion point, or false when the list
// rejects it. Lists are kept sorted by cost, so only entries no costlier
// than the candidate can dominate it (the scan stops at the first
// costlier one), and only those from the first equal-cost one on can be
// dominated by it (see insert). Under ModeDFSM each costs one bit of the
// state's superset row, loaded once.
func (o *optimizer) admit(mask uint64, cost float64, state core.State) (int, bool) {
	list := o.dp.get(mask)
	var row []uint64
	if o.p.fw != nil {
		row = o.p.fw.SupersetRow(state)
	}
	t := len(list) // insertion point: first entry with cost ≥ the candidate's
	for i, q := range list {
		if q.Cost >= cost {
			t = i
			break
		}
		if o.coveredBy(row, q.State, state) {
			return 0, false
		}
	}
	for i := t; i < len(list) && list[i].Cost == cost; i++ {
		if o.coveredBy(row, list[i].State, state) {
			return 0, false
		}
	}
	return t, true
}

// coveredBy is covers(q, s), row being s's superset row under ModeDFSM
// (nil under ModeSimmen).
func (o *optimizer) coveredBy(row []uint64, q, s core.State) bool {
	if row != nil {
		return row[q>>6]&(1<<(q&63)) != 0
	}
	return o.covers(q, s)
}

// insert enters an admitted plan into dp[mask] at the insertion point
// admit reported, dropping the entries from there on that it dominates.
func (o *optimizer) insert(mask uint64, t int, cand *plan.Node) {
	list := o.dp.get(mask)
	w := t
	for i := t; i < len(list); i++ {
		if !o.covers(cand.State, list[i].State) {
			list[w] = list[i]
			w++
		}
	}
	list = append(list[:w], nil)
	copy(list[t+1:], list[t:])
	list[t] = cand
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

// finishOne returns p's final plans in o.final (valid until the next
// call); each stage rewrites the list in place.
func (o *optimizer) finishOne(p *plan.Node) []*plan.Node {
	cands := append(o.final[:0], p)
	// Exchange candidates go under the grouping/ordering finishing:
	// parallelism covers the join pipeline, and any Sort or Group the
	// query still needs lands above the exchange (a Sort inside a
	// morsel segment would break the order-restriction argument).
	if dop := o.p.cfg.MaxDOP; dop > 1 {
		if spine, ok := parallelSpineCost(p); ok {
			n := o.node()
			*n = plan.Node{
				Op: plan.ExchangeMerge, Left: p, DOP: dop,
				Cost:   plan.ExchangeCost(spine, p.Cost-spine, p.Card, dop),
				Card:   p.Card,
				FDMask: p.FDMask,
				// The exchange is order-preserving: workers reassemble
				// in morsel order, reproducing the serial row sequence.
				State: p.State,
			}
			o.generated++
			cands = append(cands, n)
		}
	}
	if gOrd := o.p.a.GroupByOrd; gOrd != order.EmptyID {
		gcard := o.groupCard(p.Card)
		in := len(cands)
		for _, c := range cands[:in] {
			switch {
			case o.p.cfg.DisableOrderedGrouping:
				cands = append(cands, o.groupNode(c, plan.GroupHash, gcard))
			case o.contains(c.State, gOrd):
				cands = append(cands, o.groupNode(c, plan.GroupSorted, gcard))
			default:
				cands = append(cands,
					o.groupNode(o.sortPlan(c, gOrd), plan.GroupSorted, gcard),
					o.groupNode(c, plan.GroupHash, gcard))
			}
		}
		cands = cands[:copy(cands, cands[in:])]
	}
	if ord := o.p.a.OrderByOrd; ord != order.EmptyID {
		for i, c := range cands {
			if !o.contains(c.State, ord) {
				cands[i] = o.sortPlan(c, ord)
			}
		}
	}
	if k := o.p.a.Graph.Limit; o.p.a.Graph.Limited() {
		// Top-k: every candidate is re-priced for producing only k rows
		// (plan.LimitedCost) — this is where an order-satisfying pipeline
		// (streaming top, nearly fully discounted) beats a full-sort plan
		// (pays everything below the Sort) automatically.
		for i, c := range cands {
			n := o.node()
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
			cands[i] = n
		}
	}
	o.final = cands
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
	n := o.node()
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
