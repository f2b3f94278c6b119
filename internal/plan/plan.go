// Package plan defines physical query plans — scans, sorts, joins,
// grouping — together with a Selinger-style cost model. Every plan node
// carries its order-optimization state in 4 bytes.
package plan

import (
	"fmt"
	"math"
	"strings"

	"orderopt/internal/core"
	"orderopt/internal/order"
)

// Op is a physical operator.
type Op uint8

const (
	// TableScan reads a base table (no ordering produced).
	TableScan Op = iota
	// IndexScan reads a table through an index, producing its ordering.
	IndexScan
	// Sort sorts its input to SortOrd.
	Sort
	// MergeJoin joins two sorted inputs (requires ordering on both).
	MergeJoin
	// HashJoin builds on the right input and probes with the left,
	// preserving the left input's ordering.
	HashJoin
	// NestedLoopJoin scans the inner input per outer tuple, preserving
	// the outer ordering.
	NestedLoopJoin
	// GroupSorted groups a stream already sorted on the grouping
	// columns (exploits ordering, preserves it).
	GroupSorted
	// GroupHash groups by hashing (destroys ordering).
	GroupHash
	// GroupClustered is retired: no planner emits it and the executor
	// rejects it. It keeps its value and name only because the benchmark
	// module's per-operator metrics still list it
	// (exec.op.GroupClustered_ms).
	GroupClustered
	// ExchangeMerge runs its child pipeline morsel-parallel across DOP
	// workers and reassembles the worker outputs in morsel order —
	// order-preserving: the output is row-for-row the serial child's
	// stream, so every ordering the child claims survives the exchange.
	ExchangeMerge
	// Limit emits the first Limit rows of its input and stops pulling —
	// top-k early-out. Order-neutral: it passes its child's properties
	// through (a prefix of an ordered stream keeps the order).
	Limit
)

func (o Op) String() string {
	switch o {
	case TableScan:
		return "TableScan"
	case IndexScan:
		return "IndexScan"
	case Sort:
		return "Sort"
	case MergeJoin:
		return "MergeJoin"
	case HashJoin:
		return "HashJoin"
	case NestedLoopJoin:
		return "NestedLoopJoin"
	case GroupSorted:
		return "GroupSorted"
	case GroupHash:
		return "GroupHash"
	case GroupClustered:
		return "GroupClustered"
	case ExchangeMerge:
		return "ExchangeMerge"
	case Limit:
		return "Limit"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Node is one physical plan node. Children are immutable once built
// (plans share subplans freely during dynamic programming).
type Node struct {
	Op          Op
	Left, Right *Node

	Rel     int      // TableScan/IndexScan: relation index
	Index   int      // IndexScan: index position in the table
	SortOrd order.ID // Sort: target ordering
	Edge    int      // joins: join-graph edge index
	Pred    int      // MergeJoin: predicate index within the edge
	DOP     int      // exchanges: planned degree of parallelism
	Limit   int      // Limit: row cap (k)

	Cost float64 // cumulative cost
	Card float64 // output cardinality estimate

	// State is the node's order-optimization state: one DFSM state (O(1)
	// space). Under the Simmen baseline it instead indexes the optimizer
	// run's annotation table and means nothing once the run is over.
	State  core.State
	FDMask uint64 // applied FD handles (for sort-state replay)
}

// Arena bump-allocates Nodes in chunks so a plan-generation run costs a
// handful of allocations instead of one per candidate plan. Nodes handed
// out remain valid until the next Reset; every chunk is retained, so an
// arena recycled across optimizer runs (the optimizer's scratch pool)
// reaches a steady state where plan generation allocates nothing.
// Unused slots are always zero: a reset arena references nothing.
// The zero value is ready to use.
type Arena struct {
	chunks [][]Node
	active int // index of the chunk New currently fills
}

const (
	arenaMinChunk = 64
	arenaMaxChunk = 8192
)

// New returns a pointer to a zeroed Node.
func (a *Arena) New() *Node {
	for a.active < len(a.chunks) {
		c := a.chunks[a.active]
		if len(c) < cap(c) {
			c = c[:len(c)+1]
			a.chunks[a.active] = c
			return &c[len(c)-1] // zero: fresh from make, or cleared by Reset
		}
		a.active++
	}
	size := arenaMinChunk
	if n := len(a.chunks); n > 0 {
		size = 2 * cap(a.chunks[n-1])
		if size > arenaMaxChunk {
			size = arenaMaxChunk
		}
	}
	c := make([]Node, 1, size)
	a.chunks = append(a.chunks, c)
	a.active = len(a.chunks) - 1
	return &c[0]
}

// Reset rewinds the arena for reuse, retaining every chunk and zeroing
// the slots that were handed out (one bulk clear per chunk instead of
// one per New). All nodes previously handed out become invalid; callers
// keeping a plan beyond the reset must Clone it first.
func (a *Arena) Reset() {
	for i, c := range a.chunks {
		clear(c)
		a.chunks[i] = c[:0]
	}
	a.active = 0
}

// Clone deep-copies the plan into freshly heap-allocated nodes,
// detaching it from any arena. Shared subplans stay shared (the copy
// preserves the DAG shape instead of exploding it into a tree).
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	memo := make(map[*Node]*Node)
	var cp func(*Node) *Node
	cp = func(x *Node) *Node {
		if x == nil {
			return nil
		}
		if c, ok := memo[x]; ok {
			return c
		}
		c := &Node{}
		*c = *x
		memo[x] = c
		c.Left = cp(x.Left)
		c.Right = cp(x.Right)
		return c
	}
	return cp(n)
}

// String renders the plan tree.
func (n *Node) String() string {
	var b strings.Builder
	n.format(&b, 0)
	return b.String()
}

func (n *Node) format(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s (cost=%.1f card=%.1f)", n.Op, n.Cost, n.Card)
	switch n.Op {
	case TableScan, IndexScan:
		fmt.Fprintf(b, " rel=%d", n.Rel)
		if n.Op == IndexScan {
			fmt.Fprintf(b, " index=%d", n.Index)
		}
	case MergeJoin, HashJoin, NestedLoopJoin:
		fmt.Fprintf(b, " edge=%d", n.Edge)
	case ExchangeMerge:
		fmt.Fprintf(b, " dop=%d", n.DOP)
	case Limit:
		fmt.Fprintf(b, " k=%d", n.Limit)
	}
	b.WriteByte('\n')
	if n.Left != nil {
		n.Left.format(b, depth+1)
	}
	if n.Right != nil {
		n.Right.format(b, depth+1)
	}
}

// Ops returns the operator count per kind (used by tests and the CLI).
func (n *Node) Ops() map[Op]int {
	out := map[Op]int{}
	var walk func(x *Node)
	walk = func(x *Node) {
		if x == nil {
			return
		}
		out[x.Op]++
		walk(x.Left)
		walk(x.Right)
	}
	walk(n)
	return out
}

// Cost model constants. They follow the usual textbook shape: sequential
// scans are the unit, sorting is n·log n, merge joins touch each input
// once, hash joins pay per probe and a build premium per materialized
// build tuple, nested loops pay per pair. The sort and hash constants
// are calibrated against measured executor runtimes (BenchmarkExecRuntime):
//
//   - CSortTuple: the order-oblivious orders/tpcr-large plan (sorts
//     12191 rows) ran at ~106ns per cost unit against ~35ns/unit for
//     the sort-free DFSM plan under the old 0.2 — sorting was ~10x
//     underpriced. At 2.0 the two plans' ns-per-cost-unit agree.
//   - CHashBuild vs CHashProbe: the old symmetric 1.5 per tuple could
//     not distinguish probing 40k lineitems against a small build
//     (cheap: q8's hash plan, measured faster than its merge plan)
//     from building 40k lineitems (expensive: the orders workload's
//     hash alternative, measured 4.5x slower than its merge plan).
//     Probing costs like scanning; building materializes and is
//     charged like other materializing work.
const (
	CSeqTuple   = 1.0  // per tuple scanned sequentially
	CIdxTuple   = 1.5  // per tuple through an unclustered index
	CIdxClust   = 1.05 // per tuple through a clustered index
	CSortTuple  = 2.0  // per tuple per log₂ level
	CMergeTuple = 1.0  // per input tuple merged
	CHashProbe  = 1.0  // per probe-side tuple hashed and looked up
	CHashBuild  = 1.6  // per build-side tuple materialized into the table
	CNLTuple    = 0.05 // per tuple pair examined
	CGroupTuple = 0.5  // per tuple grouped (hash); sorted grouping is free
	COutTuple   = 0.1  // per output tuple materialized
)

// Parallel cost constants (the exchange). The efficiency factor
// discounts the ideal DOP-fold speedup for dispatch overhead and skew;
// the per-tuple cost prices moving rows from the workers to the
// consumer in morsel order (head-of-line blocking included); per-worker
// setup prices goroutine spawn plus the morsel pipeline compile.
const (
	CParallelEff = 0.7   // fraction of ideal speedup per added worker
	CExchTuple   = 0.1   // per tuple through an exchange, reassembled in morsel order
	CWorkerSetup = 500.0 // per worker: spawn + per-morsel pipeline setup
)

// ScanCost is the cost of a sequential scan over rows tuples.
func ScanCost(rows float64) float64 { return rows * CSeqTuple }

// IndexScanCost is the cost of a full index-order scan.
func IndexScanCost(rows float64, clustered bool) float64 {
	if clustered {
		return rows * CIdxClust
	}
	return rows * CIdxTuple
}

// SortCost is the cost of sorting card tuples (input cost excluded).
func SortCost(card float64) float64 {
	if card < 2 {
		return CSortTuple
	}
	return card * log2(card) * CSortTuple
}

// MergeJoinCost is the cost of merging two sorted inputs (input costs
// excluded).
func MergeJoinCost(cardL, cardR, cardOut float64) float64 {
	return (cardL+cardR)*CMergeTuple + cardOut*COutTuple
}

// HashJoinCost is the cost of building on R and probing with L.
func HashJoinCost(cardL, cardR, cardOut float64) float64 {
	return cardL*CHashProbe + cardR*CHashBuild + cardOut*COutTuple
}

// NestedLoopCost is the cost of scanning the inner per outer tuple.
func NestedLoopCost(cardOuter, cardInner, cardOut float64) float64 {
	return cardOuter*cardInner*CNLTuple + cardOut*COutTuple
}

// ExchangeCost is the total cost of running a child pipeline
// morsel-parallel at dop workers and reassembling the result: the
// child's spine work (the per-morsel part: driving scan, probe sides,
// merge advances) divided by the efficiency-discounted speedup, plus
// the shared work executed once at exchange setup (hash builds, merge
// right-side materialization, nested-loop inners), plus per-tuple
// exchange transfer and per-worker setup.
func ExchangeCost(spineCost, sharedCost, card float64, dop int) float64 {
	if dop < 1 {
		dop = 1
	}
	speedup := 1 + CParallelEff*float64(dop-1)
	return sharedCost + spineCost/speedup + card*CExchTuple + float64(dop)*CWorkerSetup
}

// GroupCost is the cost of grouping card tuples: hash grouping pays
// per tuple, sorted (streaming) grouping only the output write.
func GroupCost(card float64, sorted bool) float64 {
	if sorted {
		return card * COutTuple
	}
	return card * CGroupTuple
}

// LimitCost is the cost of the Limit operator itself: it forwards at
// most k tuples.
func LimitCost(k float64) float64 { return k * COutTuple }

// LimitedCost estimates the cost of executing n only until its first k
// output rows have been produced — what a Limit directly above n makes
// the executor do. Blocking work (a Sort's full input and sort, a hash
// join's build side, hash grouping's full input) happens before the
// first output row and is charged in full; streaming work above the
// blocking points scales with the fraction of the output actually
// pulled. This is the costing that prices "order-satisfying pipeline +
// cheap top-k" against "full work + sort": a pipeline whose top is
// streaming (no Sort) is almost fully discounted at small k, while a
// sort-based plan pays everything below and including the Sort.
func LimitedCost(n *Node, k float64) float64 {
	if n == nil {
		return 0
	}
	if k < 0 {
		k = 0
	}
	frac := 1.0
	if n.Card > 0 && k < n.Card {
		frac = k / n.Card
	}
	switch n.Op {
	case Sort, GroupHash:
		// Fully blocking: the entire input runs (and is sorted/grouped)
		// before the first row emerges.
		return n.Cost
	case TableScan, IndexScan:
		return n.Cost * frac
	case MergeJoin:
		own := n.Cost - n.Left.Cost - n.Right.Cost
		return own*frac +
			LimitedCost(n.Left, n.Left.Card*frac) +
			LimitedCost(n.Right, n.Right.Card*frac)
	case HashJoin:
		own := n.Cost - n.Left.Cost - n.Right.Cost
		build := n.Right.Card * CHashBuild
		stream := own - build
		if stream < 0 {
			stream = 0
		}
		return n.Right.Cost + build + stream*frac +
			LimitedCost(n.Left, n.Left.Card*frac)
	case NestedLoopJoin:
		own := n.Cost - n.Left.Cost - n.Right.Cost
		return n.Right.Cost + own*frac +
			LimitedCost(n.Left, n.Left.Card*frac)
	case GroupSorted:
		own := n.Cost - n.Left.Cost
		return own*frac + LimitedCost(n.Left, n.Left.Card*frac)
	case ExchangeMerge:
		// Worker setup happens regardless; the parallel work itself winds
		// down once the consumer's limit quiesces the pipeline.
		setup := float64(n.DOP) * CWorkerSetup
		rest := n.Cost - setup
		if rest < 0 {
			rest = 0
		}
		return setup + rest*frac
	case Limit:
		kk := float64(n.Limit)
		if k < kk {
			kk = k
		}
		return LimitedCost(n.Left, kk) + LimitCost(kk)
	default:
		return n.Cost
	}
}

// log2 is the sort cost's log₂: exact at powers of two, linear on the
// mantissa in between. For x ≥ 2, x = frac·2^exp with frac in [0.5, 1)
// gives exp-1 levels plus the mantissa 2·frac in [1, 2); below 2 it is
// x-1. +Inf stays +Inf.
func log2(x float64) float64 {
	if x < 2 {
		return x - 1
	}
	frac, exp := math.Frexp(x)
	return float64(exp-1) + (2*frac - 1)
}
