package query

import (
	"fmt"

	"orderopt/internal/core"
	"orderopt/internal/order"
)

// AnalyzeOptions tunes the §5.2 input determination.
type AnalyzeOptions struct {
	// TestedSelectionOrders additionally registers orderings on columns
	// of range/constant predicates as tested-only interesting orders
	// (the paper's optional O_T = {(r_name), (o_orderdate)} remark for
	// Q8 — useful when selection operators can exploit ordering).
	TestedSelectionOrders bool
	// UseIndexes registers each index's column sequence as a produced
	// interesting order (index scans produce it).
	UseIndexes bool
	// KeyFDs adds, per relation, the dependencies its candidate keys
	// induce (key columns → every other referenced column). They hold
	// from the scan onward, so a stream sorted on a key is sorted on
	// any extension — extra merge-join opportunities.
	KeyFDs bool
}

// maxEdgeOrders caps how many join-equality predicates register their
// column orderings as produced interesting orders. NFSM/DFSM preparation
// is worst-case exponential in the interesting-order count, so dense join
// graphs (a clique-20 carries 190 predicates) would explode preparation
// without a cap. Capped predicates
// keep their FD sets — join-time order inference stays exact — but merge
// joins on them sort both inputs instead of exploiting pre-existing
// orderings. Two further structural rules apply: predicates touching a
// relation with more than maxEdgeOrderDegree incident predicates never
// register (hub and clique concentration is what degenerates the DFSM
// powerset — equations between the hub's orders reach everything), and
// index orders beyond the maxProducedOrders budget are skipped the same
// way. Queries within the paper's sizes (every shape the experiments
// sweep) stay under all caps.
const maxEdgeOrders = 16

// maxEdgeOrderDegree excludes relations with more incident join
// predicates than this from edge-order and edge-FD registration: their
// columns equate with too many others, and every registered order and
// equation multiplies the DFSM powerset (the paper's shapes have degree
// ≤ 6; a star hub or a clique member far exceeds it).
const maxEdgeOrderDegree = 6

// maxProducedOrders bounds the total produced interesting orders (edge
// orders count two per predicate, then index orders consume what
// remains; GROUP BY / ORDER BY always register).
const maxProducedOrders = 48

// maxEdgeFDSets bounds how many edges register their equation FD sets
// with the framework builder (joins on edges beyond the cap skip order
// inference — see Analysis.EdgeFD).
const maxEdgeFDSets = 48

// Analysis is the outcome of preparation step 1 for a query graph: the
// shared attribute space, the interesting orders, and the FD set of each
// operator, ready to prepare the DFSM framework and to drive the Simmen
// baseline.
type Analysis struct {
	Graph   *Graph
	Builder *core.Builder

	// Sets[i] is the FD set of operator handle i — the shared source for
	// both frameworks (core.FDHandle(i) for ours, Sets[i] for Simmen).
	Sets []order.FDSet

	// EdgeFD[e] is the FD handle of join edge e, or -1 when the edge's
	// equations were not registered (dense graphs beyond the analysis
	// caps): joins on such edges apply no order inference, which loses
	// derivable orderings but never claims wrong ones.
	EdgeFD []core.FDHandle
	// RelFD[r] is the FD handle of relation r's selection, or -1 when
	// the relation has no constant predicates.
	RelFD []core.FDHandle

	// EdgeOrders[e] lists, per join edge, the produced single-column
	// orderings usable by a merge join: one per equality predicate and
	// side. Left and right alternate: [l0, r0, l1, r1, ...].
	EdgeOrders [][2][]order.ID

	// IndexOrders[r] lists the produced orderings of relation r's
	// indexes (aligned with the table's index list; empty when
	// UseIndexes is off).
	IndexOrders [][]order.ID

	// GroupByOrd / OrderByOrd are the produced orderings of the GROUP BY
	// and ORDER BY clauses (EmptyID when absent).
	GroupByOrd order.ID
	OrderByOrd order.ID

	attrOf map[ColumnRef]order.Attr
	colOf  map[order.Attr]ColumnRef
}

// Attr returns the attribute of a column reference, registering it on
// first use under the name alias.column.
func (a *Analysis) Attr(c ColumnRef) order.Attr {
	if at, ok := a.attrOf[c]; ok {
		return at
	}
	at := a.Builder.Attr(a.Graph.ColumnName(c))
	a.attrOf[c] = at
	if a.colOf == nil {
		a.colOf = make(map[order.Attr]ColumnRef)
	}
	a.colOf[at] = c
	return at
}

// ColumnOf is the reverse of Attr: the column reference an attribute
// stands for (the executor bridge resolves sort keys with it).
func (a *Analysis) ColumnOf(at order.Attr) (ColumnRef, bool) {
	c, ok := a.colOf[at]
	return c, ok
}

// Ordering interns the ordering over the given column references.
func (a *Analysis) Ordering(cols ...ColumnRef) order.ID {
	attrs := make([]order.Attr, 0, len(cols))
	seen := make(map[order.Attr]bool, len(cols))
	for _, c := range cols {
		at := a.Attr(c)
		if !seen[at] {
			seen[at] = true
			attrs = append(attrs, at)
		}
	}
	return a.Builder.Ordering(attrs...)
}

// Analyze performs preparation step 1 on the graph.
func Analyze(g *Graph, opt AnalyzeOptions) (*Analysis, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	a := &Analysis{
		Graph:   g,
		Builder: core.NewBuilder(),
		attrOf:  make(map[ColumnRef]order.Attr),
		RelFD:   make([]core.FDHandle, len(g.Relations)),
	}

	addSet := func(set order.FDSet) core.FDHandle {
		h := a.Builder.AddFDSet(set)
		if int(h) != len(a.Sets) {
			panic("query: FD handle out of sync")
		}
		a.Sets = append(a.Sets, set)
		return h
	}

	// Join edges: interesting orders on both sides of every equality
	// (produced: sort or index scan can emit them; merge join tests
	// them), and one FD set per edge with the equations. Registration
	// respects the edge-order caps: beyond them the orderings are still
	// interned (EdgeOrders stays complete, merge joins remain possible)
	// but not registered as produced, so they never enter the NFSM.
	producedBudget := maxProducedOrders
	fdBudget := maxEdgeFDSets
	degree := make([]int, len(g.Relations))
	for e := range g.Edges {
		for _, p := range g.Edges[e].Preds {
			degree[p.Left.Rel]++
			degree[p.Right.Rel]++
		}
	}
	registered := 0
	a.EdgeOrders = make([][2][]order.ID, len(g.Edges))
	for e := range g.Edges {
		ea, eb := g.Edges[e].Rels()
		lowDegree := degree[ea] <= maxEdgeOrderDegree && degree[eb] <= maxEdgeOrderDegree
		var fds []order.FD
		var lefts, rights []order.ID
		for _, p := range g.Edges[e].Preds {
			l, r := a.Attr(p.Left), a.Attr(p.Right)
			fds = append(fds, order.NewEquation(l, r))
			lo := a.Builder.Ordering(l)
			ro := a.Builder.Ordering(r)
			if lowDegree && registered < maxEdgeOrders {
				a.Builder.AddProduced(lo)
				a.Builder.AddProduced(ro)
				registered++
			}
			lefts = append(lefts, lo)
			rights = append(rights, ro)
		}
		a.EdgeOrders[e] = [2][]order.ID{lefts, rights}
		if lowDegree && fdBudget > 0 {
			fdBudget--
			a.EdgeFD = append(a.EdgeFD, addSet(order.NewFDSet(fds...)))
		} else {
			a.EdgeFD = append(a.EdgeFD, -1)
		}
	}
	producedBudget -= 2 * registered

	// Selections: one FD set per relation with constant predicates.
	for r := range g.Relations {
		a.RelFD[r] = -1
		var fds []order.FD
		for _, p := range g.Relations[r].ConstPreds {
			if p.Kind == EqConst {
				fds = append(fds, order.NewConstant(a.Attr(p.Col)))
			}
			if opt.TestedSelectionOrders {
				o := a.Builder.Ordering(a.Attr(p.Col))
				a.Builder.AddTested(o)
			}
		}
		if len(fds) > 0 {
			a.RelFD[r] = addSet(order.NewFDSet(fds...))
		}
	}

	// Indexes: their column sequences are produced orderings (within the
	// produced-order budget; unregistered index orders keep their scans
	// usable, just order-blind).
	a.IndexOrders = make([][]order.ID, len(g.Relations))
	if opt.UseIndexes {
		for r := range g.Relations {
			t := g.Relations[r].Table
			for _, ix := range t.Indexes {
				cols := make([]ColumnRef, len(ix.Columns))
				for i, name := range ix.Columns {
					cols[i] = ColumnRef{Rel: r, Col: t.ColumnIndex(name)}
				}
				o := a.Ordering(cols...)
				if producedBudget > 0 {
					a.Builder.AddProduced(o)
					producedBudget--
				}
				a.IndexOrders[r] = append(a.IndexOrders[r], o)
			}
		}
	}

	// GROUP BY and ORDER BY orderings (produced: a sort can emit them).
	if len(g.GroupBy) > 0 {
		a.GroupByOrd = a.Ordering(g.GroupBy...)
		a.Builder.AddProduced(a.GroupByOrd)
	}
	if len(g.OrderBy) > 0 {
		a.OrderByOrd = a.Ordering(g.OrderBy...)
		a.Builder.AddProduced(a.OrderByOrd)
	}

	// Candidate-key dependencies (after every referenced column is
	// known): key columns → each other referenced column, merged into
	// the relation's scan-time FD set.
	if opt.KeyFDs {
		for r := range g.Relations {
			t := g.Relations[r].Table
			var fds []order.FD
			for _, key := range t.Keys {
				keyAttrs := make([]order.Attr, 0, len(key))
				allReferenced := true
				for _, colName := range key {
					ref := ColumnRef{Rel: r, Col: t.ColumnIndex(colName)}
					at, ok := a.attrOf[ref]
					if !ok {
						allReferenced = false
						break
					}
					keyAttrs = append(keyAttrs, at)
				}
				if !allReferenced {
					continue // the key cannot occur in any ordering
				}
				inKey := make(map[order.Attr]bool, len(keyAttrs))
				for _, at := range keyAttrs {
					inKey[at] = true
				}
				for c := range t.Columns {
					at, ok := a.attrOf[ColumnRef{Rel: r, Col: c}]
					if !ok || inKey[at] {
						continue
					}
					fds = append(fds, order.NewFD(at, keyAttrs...))
				}
			}
			if len(fds) == 0 {
				continue
			}
			if a.RelFD[r] >= 0 {
				merged := order.NewFDSet(append(a.Sets[a.RelFD[r]].FDs, fds...)...)
				a.Sets[a.RelFD[r]] = merged
				a.Builder.ReplaceFDSet(core.FDHandle(a.RelFD[r]), merged)
			} else {
				a.RelFD[r] = addSet(order.NewFDSet(fds...))
			}
		}
	}

	if len(g.Edges) == 0 && len(g.GroupBy) == 0 && len(g.OrderBy) == 0 && !hasTested(a) {
		return nil, ErrNoInterestingOrders
	}
	return a, nil
}

// ErrNoInterestingOrders is returned by Analyze when the query has no
// joins, grouping, ordering or exploitable selections, so there is no
// order to optimize. No caller plans such a query another way: the
// planner returns the error, and the server answers the statement with
// a 400.
var ErrNoInterestingOrders = fmt.Errorf("query: no interesting orders (no joins, group by or order by)")

func hasTested(a *Analysis) bool {
	for r := range a.Graph.Relations {
		if len(a.Graph.Relations[r].ConstPreds) > 0 && len(a.IndexOrders[r]) > 0 {
			return true
		}
	}
	return false
}

// Prepare builds the DFSM framework from the analysis.
func (a *Analysis) Prepare(opt core.Options) (*core.Framework, error) {
	return a.Builder.Prepare(opt)
}
