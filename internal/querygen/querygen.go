// Package querygen generates random join queries the way the paper's §7
// experiment does: "we generated queries with 5-10 relations and a
// varying number of join predicates ... We always started from a chain
// query and then randomly added some edges." Generation is fully
// deterministic in the seed so experiments are reproducible.
package querygen

import (
	"fmt"
	"math/rand"

	"orderopt/internal/catalog"
	"orderopt/internal/query"
)

// Shape selects the join-graph topology the generator starts from.
// The paper only uses chains with extra edges; the other shapes span the
// spectrum a csg-cmp-pair enumerator is measured on — stars and cliques
// are where filtering subset splits wastes the most work.
type Shape uint8

const (
	// Chain links r0–r1–…–r(n-1) (the paper's §7 starting point).
	Chain Shape = iota
	// Star joins r0 to every other relation.
	Star
	// Cycle is a chain closed with an edge r0–r(n-1) (needs n ≥ 3).
	Cycle
	// Clique joins every relation pair.
	Clique
	// Grid arranges the relations in the most-square r×c lattice with
	// r·c = n (GridDims), joining horizontal and vertical neighbors —
	// the moderate-density middle ground between chain and clique,
	// where subgraph connectivity is genuinely two-dimensional. A prime
	// n degenerates to a 1×n grid, i.e. a chain.
	Grid
)

func (s Shape) String() string {
	switch s {
	case Star:
		return "star"
	case Cycle:
		return "cycle"
	case Clique:
		return "clique"
	case Grid:
		return "grid"
	default:
		return "chain"
	}
}

// Shapes lists all topologies (for sweeps and cross-check tests).
func Shapes() []Shape { return []Shape{Chain, Star, Cycle, Clique, Grid} }

// GridDims returns the lattice dimensions of a Grid over n relations:
// the most-square factorization r×c with r ≤ c and r·c = n. Relation i
// sits at row i/c, column i%c.
func GridDims(n int) (rows, cols int) {
	rows = 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			rows = d
		}
	}
	return rows, n / rows
}

// Spec describes one random query.
type Spec struct {
	// Relations is the number of relations n (the paper uses 5–10).
	Relations int
	// Shape is the base topology (default Chain).
	Shape Shape
	// ExtraEdges is added on top of the shape's base edges (the paper
	// uses 0, 1 and 2 on chains, labelled n-1, n and n+1).
	ExtraEdges int
	// Seed drives all random choices.
	Seed int64
	// TablePrefix prefixes every generated table and index name
	// (default "", tables r0…r(n-1)). Distinctly prefixed queries can
	// be merged into one catalog — the serving workload generates many
	// queries and binds their SQL against a single schema.
	TablePrefix string

	// RowsMin/RowsMax bound table cardinalities (defaults 1000/100000).
	RowsMin, RowsMax int64
	// SelectionProb is the chance a relation gets a constant predicate
	// (default 0.4; half of those are equality predicates that induce
	// constant FDs).
	SelectionProb float64
	// ColumnsPerTable is the width of each table (default 5).
	ColumnsPerTable int
	// NoOrderBy suppresses the ORDER BY over one or two random columns
	// that queries get by default (the paper's queries demand result
	// orders).
	NoOrderBy bool
	// WithGroupBy adds a GROUP BY over one or two random columns; the
	// ORDER BY (if any) then uses a prefix of the grouping columns so
	// plans remain executable after aggregation.
	WithGroupBy bool
}

func (s *Spec) defaults() {
	if s.RowsMin == 0 {
		s.RowsMin = 1000
	}
	if s.RowsMax == 0 {
		s.RowsMax = 100000
	}
	if s.SelectionProb == 0 {
		s.SelectionProb = 0.4
	}
	if s.ColumnsPerTable == 0 {
		s.ColumnsPerTable = 5
	}
}

// Generate builds the catalog and query graph for the spec.
func Generate(spec Spec) (*catalog.Catalog, *query.Graph, error) {
	spec.defaults()
	if spec.Relations < 1 {
		return nil, nil, fmt.Errorf("querygen: need at least one relation")
	}
	if spec.Relations > 64 {
		// The planner's relation-subset masks are uint64 — surface the
		// typed limit instead of generating a graph nothing can plan.
		return nil, nil, fmt.Errorf("querygen: %w", query.ErrTooManyRelations)
	}
	if spec.Shape == Cycle && spec.Relations < 3 {
		return nil, nil, fmt.Errorf("querygen: cycle needs at least 3 relations")
	}
	maxExtra := spec.Relations*(spec.Relations-1)/2 - baseEdges(spec.Shape, spec.Relations)
	if spec.ExtraEdges < 0 || spec.ExtraEdges > maxExtra {
		return nil, nil, fmt.Errorf("querygen: extra edges %d out of range [0, %d]",
			spec.ExtraEdges, maxExtra)
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	cat := catalog.New()
	g := &query.Graph{}
	for i := 0; i < spec.Relations; i++ {
		rows := spec.RowsMin + rng.Int63n(spec.RowsMax-spec.RowsMin+1)
		cols := make([]catalog.Column, spec.ColumnsPerTable)
		for c := range cols {
			// Distinct counts span a wide range so join selectivities
			// and sort payoffs vary.
			distinct := int64(1) << uint(4+rng.Intn(14))
			if distinct > rows {
				distinct = rows
			}
			cols[c] = catalog.Column{
				Name:     fmt.Sprintf("c%d", c),
				Type:     catalog.Int,
				Distinct: distinct,
			}
		}
		t := &catalog.Table{
			Name:    fmt.Sprintf("%sr%d", spec.TablePrefix, i),
			Columns: cols,
			Rows:    rows,
		}
		// Every table has a clustered index on its first column, so
		// index scans produce interesting orders.
		t.Indexes = []catalog.Index{{
			Name:      fmt.Sprintf("%sr%d_c0", spec.TablePrefix, i),
			Columns:   []string{"c0"},
			Clustered: true,
		}}
		if err := cat.Add(t); err != nil {
			return nil, nil, err
		}
		g.AddRelation(t.Name, t)
	}

	col := func(rel int) query.ColumnRef {
		return query.ColumnRef{Rel: rel, Col: rng.Intn(spec.ColumnsPerTable)}
	}

	// Base topology edges.
	addEdge := func(a, b int) error { return g.AddJoin(col(a), col(b)) }
	switch spec.Shape {
	case Star:
		for i := 1; i < spec.Relations; i++ {
			if err := addEdge(0, i); err != nil {
				return nil, nil, err
			}
		}
	case Clique:
		for a := 0; a < spec.Relations; a++ {
			for b := a + 1; b < spec.Relations; b++ {
				if err := addEdge(a, b); err != nil {
					return nil, nil, err
				}
			}
		}
	case Grid:
		_, cols := GridDims(spec.Relations)
		for i := 0; i < spec.Relations; i++ {
			if (i+1)%cols != 0 { // right neighbor, same row
				if err := addEdge(i, i+1); err != nil {
					return nil, nil, err
				}
			}
			if i+cols < spec.Relations { // neighbor below
				if err := addEdge(i, i+cols); err != nil {
					return nil, nil, err
				}
			}
		}
	default: // Chain, Cycle
		for i := 0; i+1 < spec.Relations; i++ {
			if err := addEdge(i, i+1); err != nil {
				return nil, nil, err
			}
		}
		if spec.Shape == Cycle {
			if err := addEdge(0, spec.Relations-1); err != nil {
				return nil, nil, err
			}
		}
	}
	// Extra random edges between pairs not yet joined.
	added := 0
	for added < spec.ExtraEdges {
		a := rng.Intn(spec.Relations)
		b := rng.Intn(spec.Relations)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if hasEdge(g, a, b) {
			continue
		}
		if err := addEdge(a, b); err != nil {
			return nil, nil, err
		}
		added++
	}

	// Selections. Literals live in the executable value range so the
	// exec.Runner can apply them physically.
	for i := 0; i < spec.Relations; i++ {
		if rng.Float64() >= spec.SelectionProb {
			continue
		}
		kind := query.RangePred
		if rng.Intn(2) == 0 {
			kind = query.EqConst
		}
		p := query.ConstPred{
			Col: col(i), Kind: kind,
			Literal: rng.Int63n(ValueRange), HasLiteral: true,
		}
		if err := g.AddConstPred(p); err != nil {
			return nil, nil, err
		}
	}

	if spec.WithGroupBy {
		g.GroupBy = []query.ColumnRef{col(rng.Intn(spec.Relations))}
		if rng.Intn(2) == 0 {
			c2 := col(rng.Intn(spec.Relations))
			if c2 != g.GroupBy[0] {
				g.GroupBy = append(g.GroupBy, c2)
			}
		}
		if !spec.NoOrderBy {
			g.OrderBy = g.GroupBy[:1+rng.Intn(len(g.GroupBy))]
		}
		return cat, g, nil
	}
	if !spec.NoOrderBy {
		g.OrderBy = []query.ColumnRef{col(rng.Intn(spec.Relations))}
		if rng.Intn(2) == 0 {
			g.OrderBy = append(g.OrderBy, col(rng.Intn(spec.Relations)))
		}
	}
	return cat, g, nil
}

// ValueRange bounds the column values GenerateData emits (small, so
// random equi-joins actually match rows).
const ValueRange = 6

// GenerateData builds small in-memory tables for the graph's relations:
// rowsPerTable rows each, uniform values in [0, ValueRange). Used by the
// end-to-end tests that execute optimized plans and compare against
// brute-force evaluation.
func GenerateData(g *query.Graph, rowsPerTable int, seed int64) map[string][][]int64 {
	rng := rand.New(rand.NewSource(seed))
	data := make(map[string][][]int64, len(g.Relations))
	for r := range g.Relations {
		t := g.Relations[r].Table
		if _, ok := data[t.Name]; ok {
			continue // self-joined table: one copy of the data
		}
		rows := make([][]int64, rowsPerTable)
		for i := range rows {
			row := make([]int64, len(t.Columns))
			for c := range row {
				row[c] = rng.Int63n(ValueRange)
			}
			rows[i] = row
		}
		data[t.Name] = rows
	}
	return data
}

// baseEdges returns how many edges the shape itself contributes.
func baseEdges(s Shape, n int) int {
	switch s {
	case Cycle:
		return n
	case Clique:
		return n * (n - 1) / 2
	case Grid:
		r, c := GridDims(n)
		return r*(c-1) + c*(r-1)
	default: // Chain, Star
		return n - 1
	}
}

func hasEdge(g *query.Graph, a, b int) bool {
	for i := range g.Edges {
		x, y := g.Edges[i].Rels()
		if x == a && y == b {
			return true
		}
	}
	return false
}
