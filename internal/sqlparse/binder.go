package sqlparse

import (
	"fmt"

	"orderopt/internal/catalog"
	"orderopt/internal/query"
)

// BoundQuery is a statement resolved against a catalog: the join graph
// for the plan generator plus everything the graph cannot carry.
type BoundQuery struct {
	Graph *query.Graph
	// Residual lists WHERE conjuncts that are not equi-joins or simple
	// column-vs-constant restrictions; they do not contribute FDs or
	// interesting orders and are applied as generic filters.
	Residual []Expr
	// Aliases maps select-list aliases to their defining expressions
	// (after derived-table flattening).
	Aliases map[string]Expr
}

// Bind resolves stmt against cat: derived tables are flattened, WHERE
// conjuncts are classified into join edges, constant predicates and
// residual filters, and GROUP BY / ORDER BY expressions are reduced to
// order-carrying columns (a monotone function like EXTRACT(YEAR FROM d)
// orders and groups by its argument column).
func Bind(stmt *SelectStmt, cat *catalog.Catalog) (*BoundQuery, error) {
	b := &binder{cat: cat, g: &query.Graph{}, aliases: map[string]Expr{}}
	if err := b.addFrom(stmt); err != nil {
		return nil, err
	}
	for _, item := range stmt.Items {
		if item.Alias != "" {
			b.aliases[item.Alias] = b.substitute(item.Expr)
		}
	}
	if stmt.Where != nil {
		if err := b.addWhere(b.substitute(stmt.Where)); err != nil {
			return nil, err
		}
	}
	for _, e := range stmt.GroupBy {
		ref, err := b.orderColumn(e)
		if err != nil {
			return nil, fmt.Errorf("sql: GROUP BY: %w", err)
		}
		b.g.GroupBy = append(b.g.GroupBy, ref)
	}
	for _, o := range stmt.OrderBy {
		ref, err := b.orderColumn(o.Expr)
		if err != nil {
			return nil, fmt.Errorf("sql: ORDER BY: %w", err)
		}
		b.g.OrderBy = append(b.g.OrderBy, ref)
	}
	if err := b.bindAggregates(stmt); err != nil {
		return nil, err
	}
	if stmt.Limit != nil {
		if *stmt.Limit > int64(int(^uint(0)>>1)) {
			return nil, fmt.Errorf("sql: LIMIT %d out of range", *stmt.Limit)
		}
		b.g.Limit = int(*stmt.Limit)
		// An explicit LIMIT 0 means an empty result, not "no limit".
		b.g.HasLimit = true
	}
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	return &BoundQuery{Graph: b.g, Residual: b.residual, Aliases: b.aliases}, nil
}

// aggFns maps aggregate function names to their graph representation.
var aggFns = map[string]query.AggFn{
	"COUNT": query.AggCount,
	"SUM":   query.AggSum,
	"AVG":   query.AggAvg,
	"MIN":   query.AggMin,
	"MAX":   query.AggMax,
}

// bindAggregates collects the aggregate select-list items into
// Graph.Aggregates, in select-list order. Aggregates are only
// meaningful over groups, so they require GROUP BY; count(col) is
// bound as count(*) (all values are non-null integers here).
func (b *binder) bindAggregates(stmt *SelectStmt) error {
	for _, item := range stmt.Items {
		f, ok := item.Expr.(*FuncCall)
		if !ok {
			continue
		}
		fn, ok := aggFns[f.Name]
		if !ok {
			continue // non-aggregate function: stays an alias/projection
		}
		if len(stmt.GroupBy) == 0 {
			return fmt.Errorf("sql: aggregate %s requires GROUP BY", item.Expr)
		}
		if fn == query.AggCount {
			b.g.Aggregates = append(b.g.Aggregates, query.Aggregate{Fn: query.AggCount})
			continue
		}
		if f.Star || len(f.Args) != 1 {
			return fmt.Errorf("sql: %s wants exactly one column argument", f.Name)
		}
		col, ok := b.substitute(f.Args[0]).(*ColumnRef)
		if !ok {
			return fmt.Errorf("sql: %s wants a plain column argument, found %s", f.Name, f.Args[0])
		}
		ref, err := b.resolve(col)
		if err != nil {
			return err
		}
		b.g.Aggregates = append(b.g.Aggregates, query.Aggregate{Fn: fn, Col: ref})
	}
	return nil
}

type binder struct {
	cat      *catalog.Catalog
	g        *query.Graph
	aliases  map[string]Expr // derived-table / select aliases → expression
	derived  map[string]bool // derived-table aliases (qualifier rewrite)
	residual []Expr
}

// addFrom registers the FROM items, flattening derived tables: their
// relations and WHERE conjuncts merge into the outer query and their
// select aliases become substitutable expressions.
func (b *binder) addFrom(stmt *SelectStmt) error {
	for _, f := range stmt.From {
		switch item := f.(type) {
		case *TableRef:
			t, ok := b.cat.Table(item.Table)
			if !ok {
				return fmt.Errorf("sql: unknown table %s", item.Table)
			}
			alias := item.Alias
			if alias == "" {
				alias = item.Table
			}
			for i := range b.g.Relations {
				if b.g.Relations[i].Alias == alias {
					return fmt.Errorf("sql: duplicate relation alias %s", alias)
				}
			}
			b.g.AddRelation(alias, t)

		case *SubqueryRef:
			sub := item.Select
			if len(sub.GroupBy) > 0 || len(sub.OrderBy) > 0 {
				return fmt.Errorf("sql: derived table %s with GROUP BY/ORDER BY is not supported for planning", item.Alias)
			}
			if err := b.addFrom(sub); err != nil {
				return err
			}
			if b.derived == nil {
				b.derived = map[string]bool{}
			}
			b.derived[item.Alias] = true
			for _, si := range sub.Items {
				if si.Star {
					continue
				}
				name := si.Alias
				if name == "" {
					if c, ok := si.Expr.(*ColumnRef); ok {
						name = c.Name
					}
				}
				if name != "" {
					b.aliases[name] = b.substitute(si.Expr)
				}
			}
			if sub.Where != nil {
				if err := b.addWhere(b.substitute(sub.Where)); err != nil {
					return err
				}
			}

		default:
			return fmt.Errorf("sql: unsupported FROM item %T", f)
		}
	}
	return nil
}

// substitute replaces alias references (from derived tables or the
// select list) with their defining expressions.
func (b *binder) substitute(e Expr) Expr {
	switch x := e.(type) {
	case *ColumnRef:
		if x.Qualifier == "" || b.derived[x.Qualifier] {
			if def, ok := b.aliases[x.Name]; ok {
				return def
			}
			if b.derived[x.Qualifier] {
				// Column passed through the derived table unchanged.
				return &ColumnRef{Name: x.Name}
			}
		}
		return x
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, Left: b.substitute(x.Left), Right: b.substitute(x.Right)}
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, Expr: b.substitute(x.Expr)}
	case *BetweenExpr:
		return &BetweenExpr{Expr: b.substitute(x.Expr), Lo: b.substitute(x.Lo), Hi: b.substitute(x.Hi), Not: x.Not}
	case *FuncCall:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = b.substitute(a)
		}
		return &FuncCall{Name: x.Name, Args: args, Star: x.Star}
	case *ExtractExpr:
		return &ExtractExpr{Field: x.Field, From: b.substitute(x.From)}
	case *CaseExpr:
		c := &CaseExpr{}
		for _, w := range x.Whens {
			c.Whens = append(c.Whens, CaseWhen{Cond: b.substitute(w.Cond), Then: b.substitute(w.Then)})
		}
		if x.Else != nil {
			c.Else = b.substitute(x.Else)
		}
		return c
	default:
		return e
	}
}

// resolve maps a column reference to its relation and column.
func (b *binder) resolve(c *ColumnRef) (query.ColumnRef, error) {
	if c.Qualifier != "" {
		for r := range b.g.Relations {
			if b.g.Relations[r].Alias != c.Qualifier {
				continue
			}
			ci := b.g.Relations[r].Table.ColumnIndex(c.Name)
			if ci < 0 {
				return query.ColumnRef{}, fmt.Errorf("sql: unknown column %s", c)
			}
			return query.ColumnRef{Rel: r, Col: ci}, nil
		}
		return query.ColumnRef{}, fmt.Errorf("sql: unknown relation %s", c.Qualifier)
	}
	found := query.ColumnRef{Rel: -1}
	for r := range b.g.Relations {
		if ci := b.g.Relations[r].Table.ColumnIndex(c.Name); ci >= 0 {
			if found.Rel >= 0 {
				return query.ColumnRef{}, fmt.Errorf("sql: ambiguous column %s", c.Name)
			}
			found = query.ColumnRef{Rel: r, Col: ci}
		}
	}
	if found.Rel < 0 {
		return query.ColumnRef{}, fmt.Errorf("sql: unknown column %s", c.Name)
	}
	return found, nil
}

// orderColumn reduces an expression to the column that carries its
// order: a plain column, or the argument of a monotone unary function.
func (b *binder) orderColumn(e Expr) (query.ColumnRef, error) {
	e = b.substitute(e)
	switch x := e.(type) {
	case *ColumnRef:
		return b.resolve(x)
	case *ExtractExpr:
		// EXTRACT(YEAR FROM d) is monotone in d, so d carries its order.
		// MONTH and DAY wrap around within d's order: rows ordered by d
		// are not ordered by month, and equal months are not adjacent.
		if x.Field != "YEAR" {
			return query.ColumnRef{}, fmt.Errorf("cannot map expression %s to an order-carrying column: %s is not monotone in its argument", e, x.Field)
		}
		return b.orderColumn(x.From)
	default:
		return query.ColumnRef{}, fmt.Errorf("cannot map expression %s to an order-carrying column", e)
	}
}

// addWhere splits a predicate into conjuncts and classifies each.
func (b *binder) addWhere(e Expr) error {
	if bin, ok := e.(*BinaryExpr); ok && bin.Op == "AND" {
		if err := b.addWhere(bin.Left); err != nil {
			return err
		}
		return b.addWhere(bin.Right)
	}
	return b.addConjunct(e)
}

func isLiteral(e Expr) bool {
	switch e.(type) {
	case *NumberLit, *StringLit, *DateLit:
		return true
	}
	return false
}

func (b *binder) addConjunct(e Expr) error {
	switch x := e.(type) {
	case *BinaryExpr:
		lc, lIsCol := x.Left.(*ColumnRef)
		rc, rIsCol := x.Right.(*ColumnRef)
		switch {
		case x.Op == "=" && lIsCol && rIsCol:
			l, err := b.resolve(lc)
			if err != nil {
				return err
			}
			r, err := b.resolve(rc)
			if err != nil {
				return err
			}
			if l.Rel == r.Rel {
				b.residual = append(b.residual, e)
				return nil
			}
			return b.g.AddJoin(l, r)
		case x.Op == "=" && lIsCol && isLiteral(x.Right):
			return b.constPred(lc, query.EqConst)
		case x.Op == "=" && rIsCol && isLiteral(x.Left):
			return b.constPred(rc, query.EqConst)
		case (x.Op == "<" || x.Op == ">" || x.Op == "<=" || x.Op == ">=") && lIsCol && isLiteral(x.Right):
			return b.constPred(lc, query.RangePred)
		case (x.Op == "<" || x.Op == ">" || x.Op == "<=" || x.Op == ">=") && rIsCol && isLiteral(x.Left):
			return b.constPred(rc, query.RangePred)
		case x.Op == "LIKE" && lIsCol:
			return b.constPred(lc, query.LikePred)
		}
	case *BetweenExpr:
		if c, ok := x.Expr.(*ColumnRef); ok && !x.Not && isLiteral(x.Lo) && isLiteral(x.Hi) {
			return b.constPred(c, query.RangePred)
		}
	}
	b.residual = append(b.residual, e)
	return nil
}

func (b *binder) constPred(c *ColumnRef, kind query.PredKind) error {
	ref, err := b.resolve(c)
	if err != nil {
		return err
	}
	return b.g.AddConstPred(query.ConstPred{Col: ref, Kind: kind})
}
