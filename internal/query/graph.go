// Package query represents a join query as a graph — relations, equality
// join edges, constant predicates, GROUP BY / ORDER BY requirements — and
// performs the paper's preparation step 1 (§5.2): determining the
// interesting orders (produced and tested) and the functional-dependency
// set each algebraic operator induces. Both order-optimization
// frameworks (the DFSM one and the Simmen baseline) are fed from the
// same analysis so the §7 comparison is apples-to-apples.
package query

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"orderopt/internal/catalog"
)

// ErrTooManyRelations is returned when a query exceeds the planner's
// 64-relation limit: relation subsets are uint64 masks throughout the
// plan generator, so larger queries cannot be represented without
// silent truncation. Callers detect it with errors.Is.
var ErrTooManyRelations = errors.New("query: more than 64 relations (relation-set masks are uint64)")

// ColumnRef identifies a column of one relation occurrence in the query.
type ColumnRef struct {
	Rel int // index into Graph.Relations
	Col int // index into the relation's table columns
}

// PredKind classifies single-relation predicates.
type PredKind uint8

const (
	// EqConst is column = constant (induces the FD ∅ → column).
	EqConst PredKind = iota
	// RangePred is a range restriction (<, >, BETWEEN); no FD.
	RangePred
	// LikePred is a pattern restriction; no FD.
	LikePred
)

// ConstPred is a predicate over a single relation.
type ConstPred struct {
	Col  ColumnRef
	Kind PredKind
	// Selectivity in (0, 1]; 0 means "use the default for the kind".
	Selectivity float64
	// Literal carries the comparison value for execution (set when the
	// source predicate compared against an integer literal). Without a
	// literal the predicate only informs planning; the executor treats
	// it as true.
	Literal    int64
	HasLiteral bool
}

// Matches evaluates the predicate against a column value; predicates
// without a literal are vacuously true (planning-only).
func (p ConstPred) Matches(v int64) bool {
	if !p.HasLiteral {
		return true
	}
	switch p.Kind {
	case EqConst:
		return v == p.Literal
	case RangePred:
		return v >= p.Literal
	default: // LikePred has no integer semantics
		return true
	}
}

// DefaultSelectivity returns the predicate's selectivity estimate.
func (p ConstPred) DefaultSelectivity(t *catalog.Table) float64 {
	if p.Selectivity > 0 {
		return p.Selectivity
	}
	switch p.Kind {
	case EqConst:
		d := t.Columns[p.Col.Col].Distinct
		if d < 1 {
			d = 1
		}
		return 1 / float64(d)
	case RangePred:
		return 0.3
	default: // LikePred
		return 0.1
	}
}

// AggFn identifies an aggregate function of a select list.
type AggFn uint8

const (
	// AggCount is count(*): no input column.
	AggCount AggFn = iota
	// AggSum is sum(col).
	AggSum
	// AggAvg is avg(col) — integer semantics: sum/count, truncated.
	AggAvg
	// AggMin is min(col).
	AggMin
	// AggMax is max(col).
	AggMax
)

func (f AggFn) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("AggFn(%d)", uint8(f))
	}
}

// Aggregate is one aggregate select-list item. Col is the input column;
// AggCount ignores it (count(*)).
type Aggregate struct {
	Fn  AggFn
	Col ColumnRef
}

// JoinPred is an equality between columns of two relations (a = b). It
// induces the equation FD a = b on the join operator.
type JoinPred struct {
	Left, Right ColumnRef
}

// Edge is a join-graph edge: the conjunction of all equality predicates
// between one pair of relations.
type Edge struct {
	Preds []JoinPred
}

// Rels returns the two relation indexes the edge connects.
func (e *Edge) Rels() (int, int) {
	return e.Preds[0].Left.Rel, e.Preds[0].Right.Rel
}

// Relation is one occurrence of a base table in the FROM clause.
type Relation struct {
	Alias      string
	Table      *catalog.Table
	ConstPreds []ConstPred
}

// Graph is the query to optimize.
type Graph struct {
	Relations []Relation
	Edges     []Edge
	GroupBy   []ColumnRef
	OrderBy   []ColumnRef

	// Aggregates lists the aggregate select-list items of a grouped
	// query, in select-list order. Empty means the executor's default
	// (a single count(*) when grouping).
	Aggregates []Aggregate

	// Limit caps the number of result rows; 0 means no limit unless
	// HasLimit is set. It applies after grouping and ordering, so the
	// executor's Limit operator sits at the very top of the pipeline.
	Limit int
	// HasLimit distinguishes an explicit LIMIT 0 (empty result) from
	// the zero value's "no limit". Any Limit > 0 implies a limit
	// whether or not HasLimit is set, so programmatic graph builders
	// can keep assigning Limit directly.
	HasLimit bool

	// masks caches the bitset view of the graph (EdgeMasks). It is
	// rebuilt lazily whenever relations or edges were added since the
	// last build; adding predicates to an existing edge keeps it valid
	// because the endpoints are fixed by the edge's first predicate.
	// masksMu guards the lazy build so read-only sharing of one graph
	// (concurrent planner preparation) is safe; the mutators remain
	// single-threaded-only.
	masksMu sync.Mutex
	masks   *EdgeMasks
}

// EdgeMasks is the precomputed bitset view of a join graph. All hot-path
// connectivity and edge queries reduce to mask operations over it.
type EdgeMasks struct {
	// Edge holds, per edge, the mask of the two relations it connects.
	Edge []uint64
	// Adj holds, per relation, the mask of relations joined to it.
	Adj []uint64
	// Incident holds, per relation, a bitset over edge indexes (64 edges
	// per word) listing the edges touching the relation.
	Incident [][]uint64
}

// EdgeMasks returns the cached bitset view, rebuilding it if the graph
// gained relations or edges since the last call. The lazy build is
// mutex-guarded, so a fully built graph may be shared read-only by
// concurrent optimizer preparations; the append-based mutators remain
// unsafe for concurrent use.
func (g *Graph) EdgeMasks() *EdgeMasks {
	g.masksMu.Lock()
	defer g.masksMu.Unlock()
	if m := g.masks; m != nil && len(m.Edge) == len(g.Edges) && len(m.Adj) == len(g.Relations) {
		return m
	}
	m := &EdgeMasks{
		Edge:     make([]uint64, len(g.Edges)),
		Adj:      make([]uint64, len(g.Relations)),
		Incident: make([][]uint64, len(g.Relations)),
	}
	words := (len(g.Edges) + 63) / 64
	inc := make([]uint64, words*len(g.Relations)) // one backing array
	for r := range m.Incident {
		m.Incident[r] = inc[r*words : (r+1)*words : (r+1)*words]
	}
	for e := range g.Edges {
		a, b := g.Edges[e].Rels()
		m.Edge[e] = 1<<uint(a) | 1<<uint(b)
		m.Adj[a] |= 1 << uint(b)
		m.Adj[b] |= 1 << uint(a)
		m.Incident[a][e/64] |= 1 << (uint(e) % 64)
		m.Incident[b][e/64] |= 1 << (uint(e) % 64)
	}
	g.masks = m
	return m
}

// AddRelation appends a relation occurrence and returns its index.
func (g *Graph) AddRelation(alias string, t *catalog.Table) int {
	g.Relations = append(g.Relations, Relation{Alias: alias, Table: t})
	return len(g.Relations) - 1
}

// AddConstPred attaches a single-relation predicate.
func (g *Graph) AddConstPred(p ConstPred) error {
	if err := g.checkRef(p.Col); err != nil {
		return err
	}
	r := &g.Relations[p.Col.Rel]
	r.ConstPreds = append(r.ConstPreds, p)
	return nil
}

// AddJoin records the equality left = right, merging it into an existing
// edge between the same pair of relations.
func (g *Graph) AddJoin(left, right ColumnRef) error {
	if err := g.checkRef(left); err != nil {
		return err
	}
	if err := g.checkRef(right); err != nil {
		return err
	}
	if left.Rel == right.Rel {
		return fmt.Errorf("query: join predicate within one relation (%s)",
			g.Relations[left.Rel].Alias)
	}
	if left.Rel > right.Rel {
		left, right = right, left
	}
	for i := range g.Edges {
		a, b := g.Edges[i].Rels()
		if a == left.Rel && b == right.Rel {
			g.Edges[i].Preds = append(g.Edges[i].Preds, JoinPred{left, right})
			return nil
		}
	}
	g.Edges = append(g.Edges, Edge{Preds: []JoinPred{{left, right}}})
	return nil
}

func (g *Graph) checkRef(c ColumnRef) error {
	if c.Rel < 0 || c.Rel >= len(g.Relations) {
		return fmt.Errorf("query: relation index %d out of range", c.Rel)
	}
	t := g.Relations[c.Rel].Table
	if c.Col < 0 || c.Col >= len(t.Columns) {
		return fmt.Errorf("query: column index %d out of range for %s", c.Col, t.Name)
	}
	return nil
}

// ColumnName renders a reference as alias.column.
func (g *Graph) ColumnName(c ColumnRef) string {
	r := g.Relations[c.Rel]
	return r.Alias + "." + r.Table.Columns[c.Col].Name
}

// Connected reports whether the relations in mask form a connected
// subgraph.
func (g *Graph) Connected(mask uint64) bool {
	return ConnectedIn(g.EdgeMasks().Adj, mask)
}

// ConnectedIn reports whether mask is connected under the given
// per-relation adjacency masks.
func ConnectedIn(adj []uint64, mask uint64) bool {
	if mask == 0 {
		return false
	}
	start := mask & -mask
	seen := start
	frontier := start
	for frontier != 0 {
		var next uint64
		for m := frontier; m != 0; m &= m - 1 {
			next |= adj[bits.TrailingZeros64(m)] & mask &^ seen
		}
		seen |= next
		frontier = next
	}
	return seen == mask
}

// EdgesBetween returns the indexes of edges connecting a relation in
// maskA with one in maskB. An edge qualifies when one endpoint lies in
// maskA and the other in maskB; candidates come from the incident-edge
// bitsets of maskA's relations and each costs a couple of mask ANDs
// against its cached 2-relation mask instead of an endpoint rescan.
func (g *Graph) EdgesBetween(maskA, maskB uint64) []int {
	m := g.EdgeMasks()
	if len(m.Edge) == 0 {
		return nil
	}
	var out []int
	if len(m.Edge) <= 64 {
		var cand uint64
		for s := maskA; s != 0; s &= s - 1 {
			cand |= m.Incident[bits.TrailingZeros64(s)][0]
		}
		for c := cand; c != 0; c &= c - 1 {
			e := bits.TrailingZeros64(c)
			if em := m.Edge[e]; em&maskB != 0 && em&^(maskA|maskB) == 0 {
				out = append(out, e)
			}
		}
		return out
	}
	for e, em := range m.Edge {
		if em&maskA != 0 && em&maskB != 0 && em&^(maskA|maskB) == 0 {
			out = append(out, e)
		}
	}
	return out
}

// Validate checks that the graph is non-empty, fits the planner's 64-
// relation limit and is connected.
func (g *Graph) Validate() error {
	if len(g.Relations) == 0 {
		return fmt.Errorf("query: no relations")
	}
	if len(g.Relations) > 64 {
		return ErrTooManyRelations
	}
	if len(g.Relations) > 1 {
		full := uint64(1)<<uint(len(g.Relations)) - 1
		if !g.Connected(full) {
			return fmt.Errorf("query: join graph is not connected")
		}
	}
	for _, c := range g.GroupBy {
		if err := g.checkRef(c); err != nil {
			return err
		}
	}
	for _, c := range g.OrderBy {
		if err := g.checkRef(c); err != nil {
			return err
		}
	}
	for _, a := range g.Aggregates {
		if a.Fn > AggMax {
			return fmt.Errorf("query: unknown aggregate function %d", a.Fn)
		}
		if a.Fn == AggCount {
			continue // count(*) has no input column
		}
		if err := g.checkRef(a.Col); err != nil {
			return err
		}
	}
	if g.Limit < 0 {
		return fmt.Errorf("query: negative limit %d", g.Limit)
	}
	return nil
}

// Limited reports whether the query caps its result rows — either a
// positive Limit or an explicit LIMIT 0 (HasLimit).
func (g *Graph) Limited() bool {
	return g.HasLimit || g.Limit > 0
}

// AggregateName renders an aggregate as it appears in a select list,
// e.g. "sum(o.o_totalprice)" or "count(*)".
func (g *Graph) AggregateName(a Aggregate) string {
	if a.Fn == AggCount {
		return "count(*)"
	}
	return a.Fn.String() + "(" + g.ColumnName(a.Col) + ")"
}
