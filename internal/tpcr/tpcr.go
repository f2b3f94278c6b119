// Package tpcr embeds the TPC-R benchmark substrate the paper evaluates
// on: the eight-table schema, Query 8 ("national market share") both as
// SQL text and as a programmatic query graph, and a small synthetic data
// generator for executor-level validation. TPC-R shares its schema with
// TPC-H; scale factor 1 row counts are used for statistics.
package tpcr

import (
	"fmt"
	"math/rand"
	"sort"

	"orderopt/internal/catalog"
	"orderopt/internal/query"
)

// Schema returns the TPC-R schema with scale-factor-1 statistics.
func Schema() *catalog.Catalog {
	c := catalog.New()
	c.MustAdd(&catalog.Table{
		Name: "part",
		Columns: []catalog.Column{
			{Name: "p_partkey", Type: catalog.Int, Distinct: 200000},
			{Name: "p_name", Type: catalog.String, Distinct: 199997},
			{Name: "p_type", Type: catalog.String, Distinct: 150},
			{Name: "p_size", Type: catalog.Int, Distinct: 50},
		},
		Rows: 200000,
		Keys: [][]string{{"p_partkey"}},
		Indexes: []catalog.Index{
			{Name: "part_pk", Columns: []string{"p_partkey"}, Unique: true, Clustered: true},
		},
	})
	c.MustAdd(&catalog.Table{
		Name: "supplier",
		Columns: []catalog.Column{
			{Name: "s_suppkey", Type: catalog.Int, Distinct: 10000},
			{Name: "s_name", Type: catalog.String, Distinct: 10000},
			{Name: "s_nationkey", Type: catalog.Int, Distinct: 25},
		},
		Rows: 10000,
		Keys: [][]string{{"s_suppkey"}},
		Indexes: []catalog.Index{
			{Name: "supplier_pk", Columns: []string{"s_suppkey"}, Unique: true, Clustered: true},
		},
	})
	c.MustAdd(&catalog.Table{
		Name: "lineitem",
		Columns: []catalog.Column{
			{Name: "l_orderkey", Type: catalog.Int, Distinct: 1500000},
			{Name: "l_partkey", Type: catalog.Int, Distinct: 200000},
			{Name: "l_suppkey", Type: catalog.Int, Distinct: 10000},
			{Name: "l_extendedprice", Type: catalog.Float, Distinct: 933900},
			{Name: "l_discount", Type: catalog.Float, Distinct: 11},
		},
		Rows: 6001215,
		Indexes: []catalog.Index{
			{Name: "lineitem_orderkey", Columns: []string{"l_orderkey"}, Clustered: true},
			{Name: "lineitem_partkey", Columns: []string{"l_partkey"}},
		},
	})
	c.MustAdd(&catalog.Table{
		Name: "orders",
		Columns: []catalog.Column{
			{Name: "o_orderkey", Type: catalog.Int, Distinct: 1500000},
			{Name: "o_custkey", Type: catalog.Int, Distinct: 99996},
			{Name: "o_orderdate", Type: catalog.Date, Distinct: 2406},
		},
		Rows: 1500000,
		Keys: [][]string{{"o_orderkey"}},
		Indexes: []catalog.Index{
			{Name: "orders_pk", Columns: []string{"o_orderkey"}, Unique: true, Clustered: true},
		},
	})
	c.MustAdd(&catalog.Table{
		Name: "customer",
		Columns: []catalog.Column{
			{Name: "c_custkey", Type: catalog.Int, Distinct: 150000},
			{Name: "c_nationkey", Type: catalog.Int, Distinct: 25},
		},
		Rows: 150000,
		Keys: [][]string{{"c_custkey"}},
		Indexes: []catalog.Index{
			{Name: "customer_pk", Columns: []string{"c_custkey"}, Unique: true, Clustered: true},
		},
	})
	c.MustAdd(&catalog.Table{
		Name: "nation",
		Columns: []catalog.Column{
			{Name: "n_nationkey", Type: catalog.Int, Distinct: 25},
			{Name: "n_name", Type: catalog.String, Distinct: 25},
			{Name: "n_regionkey", Type: catalog.Int, Distinct: 5},
		},
		Rows: 25,
		Keys: [][]string{{"n_nationkey"}},
	})
	c.MustAdd(&catalog.Table{
		Name: "region",
		Columns: []catalog.Column{
			{Name: "r_regionkey", Type: catalog.Int, Distinct: 5},
			{Name: "r_name", Type: catalog.String, Distinct: 5},
		},
		Rows: 5,
		Keys: [][]string{{"r_regionkey"}},
	})
	return c
}

// Query8SQL is the paper's §6.2 query verbatim (TPC-R Q8, national
// market share), with the placeholders instantiated like the paper's
// experiments.
const Query8SQL = `
select
    o_year,
    sum(case when nation = 'BRAZIL' then volume else 0 end) / sum(volume) as mkt_share
from
    (select
        extract(year from o_orderdate) as o_year,
        l_extendedprice * (1 - l_discount) as volume,
        n2.n_name as nation
    from
        part, supplier, lineitem, orders, customer,
        nation n1, nation n2, region
    where
        p_partkey = l_partkey and
        s_suppkey = l_suppkey and
        l_orderkey = o_orderkey and
        o_custkey = c_custkey and
        c_nationkey = n1.n_nationkey and
        n1.n_regionkey = r_regionkey and
        r_name = 'AMERICA' and
        s_nationkey = n2.n_nationkey and
        o_orderdate between date '1995-01-01' and date '1996-12-31' and
        p_type = 'ECONOMY ANODIZED STEEL'
    ) as all_nations
group by o_year
order by o_year`

// Query8Graph builds the flattened Q8 join graph: eight relations, seven
// equality join edges, the selections on region, part and orders, and
// the GROUP BY / ORDER BY on o_year (represented by o_orderdate, which
// functionally determines extract(year from o_orderdate)).
func Query8Graph() (*catalog.Catalog, *query.Graph, error) {
	c := Schema()
	g := &query.Graph{}
	names := []string{"part", "supplier", "lineitem", "orders", "customer", "n1", "n2", "region"}
	tables := []string{"part", "supplier", "lineitem", "orders", "customer", "nation", "nation", "region"}
	idx := make(map[string]int, len(names))
	for i, alias := range names {
		t, ok := c.Table(tables[i])
		if !ok {
			return nil, nil, fmt.Errorf("tpcr: missing table %s", tables[i])
		}
		idx[alias] = g.AddRelation(alias, t)
	}
	ref := func(alias, col string) query.ColumnRef {
		r := idx[alias]
		t := g.Relations[r].Table
		ci := t.ColumnIndex(col)
		if ci < 0 {
			panic(fmt.Sprintf("tpcr: unknown column %s.%s", alias, col))
		}
		return query.ColumnRef{Rel: r, Col: ci}
	}
	joins := [][2]query.ColumnRef{
		{ref("part", "p_partkey"), ref("lineitem", "l_partkey")},
		{ref("supplier", "s_suppkey"), ref("lineitem", "l_suppkey")},
		{ref("lineitem", "l_orderkey"), ref("orders", "o_orderkey")},
		{ref("orders", "o_custkey"), ref("customer", "c_custkey")},
		{ref("customer", "c_nationkey"), ref("n1", "n_nationkey")},
		{ref("n1", "n_regionkey"), ref("region", "r_regionkey")},
		{ref("supplier", "s_nationkey"), ref("n2", "n_nationkey")},
	}
	for _, j := range joins {
		if err := g.AddJoin(j[0], j[1]); err != nil {
			return nil, nil, err
		}
	}
	sels := []query.ConstPred{
		{Col: ref("region", "r_name"), Kind: query.EqConst,
			Literal: AmericaCode, HasLiteral: true},
		{Col: ref("part", "p_type"), Kind: query.EqConst,
			Literal: EconomyAnodizedSteelCode, HasLiteral: true},
		{Col: ref("orders", "o_orderdate"), Kind: query.RangePred, Selectivity: 0.3,
			Literal: OrderDateCutoff, HasLiteral: true},
	}
	for _, s := range sels {
		if err := g.AddConstPred(s); err != nil {
			return nil, nil, err
		}
	}
	// o_year = extract(year from o_orderdate): the grouping order is
	// carried by o_orderdate (which functionally determines o_year).
	g.GroupBy = []query.ColumnRef{ref("orders", "o_orderdate")}
	g.OrderBy = []query.ColumnRef{ref("orders", "o_orderdate")}
	return c, g, nil
}

// OrderStreamGraph builds a TPC-R Q3-style order-flow query over the
// schema: customer ⋈ orders ⋈ lineitem with a date range on
// o_orderdate, the whole (large) join result ordered by o_orderkey.
// It is the workload where order reasoning pays at its purest: the
// clustered indexes on o_orderkey and l_orderkey let a merge-join
// pipeline deliver the result order for free, while an order-oblivious
// plan must re-sort the entire join output at the top — even when its
// hash pipeline happens to preserve the very same order physically,
// the planner cannot know that without reasoning about orders.
func OrderStreamGraph() (*catalog.Catalog, *query.Graph, error) {
	c := Schema()
	g := &query.Graph{}
	aliases := []string{"customer", "orders", "lineitem"}
	idx := make(map[string]int, len(aliases))
	for _, name := range aliases {
		t, ok := c.Table(name)
		if !ok {
			return nil, nil, fmt.Errorf("tpcr: missing table %s", name)
		}
		idx[name] = g.AddRelation(name, t)
	}
	ref := func(alias, col string) query.ColumnRef {
		r := idx[alias]
		ci := g.Relations[r].Table.ColumnIndex(col)
		if ci < 0 {
			panic(fmt.Sprintf("tpcr: unknown column %s.%s", alias, col))
		}
		return query.ColumnRef{Rel: r, Col: ci}
	}
	if err := g.AddJoin(ref("lineitem", "l_orderkey"), ref("orders", "o_orderkey")); err != nil {
		return nil, nil, err
	}
	if err := g.AddJoin(ref("orders", "o_custkey"), ref("customer", "c_custkey")); err != nil {
		return nil, nil, err
	}
	if err := g.AddConstPred(query.ConstPred{
		Col: ref("orders", "o_orderdate"), Kind: query.RangePred, Selectivity: 0.3,
		Literal: OrderDateCutoff, HasLiteral: true,
	}); err != nil {
		return nil, nil, err
	}
	g.OrderBy = []query.ColumnRef{ref("orders", "o_orderkey")}
	return c, g, nil
}

// Dictionary codes of Q8's literals under Generate's value coding, so
// executing the Q8 graph over generated data actually filters the way
// the paper's query does (strings are dictionary-coded integers, dates
// day numbers).
const (
	// AmericaCode codes r_name = 'AMERICA' (regions are numbered; one
	// of the five matches).
	AmericaCode = 1
	// EconomyAnodizedSteelCode codes p_type = 'ECONOMY ANODIZED STEEL'
	// (part types are drawn from 10 codes).
	EconomyAnodizedSteelCode = 3
	// OrderDateCutoff is the day number ~70% into Generate's two-year
	// o_orderdate window; the ≥ range predicate then passes ~30% of
	// orders, matching the graph's 0.3 selectivity estimate.
	OrderDateCutoff = 9131 + 511
)

// Row counts for the synthetic mini data set (executor validation).
type GenSpec struct {
	Parts, Suppliers, Customers, Orders, LineItems int
	Seed                                           int64
}

// DefaultGenSpec is small enough for tests yet exercises every join.
func DefaultGenSpec() GenSpec {
	return GenSpec{Parts: 50, Suppliers: 20, Customers: 30, Orders: 60, LineItems: 200, Seed: 1}
}

// Scale multiplies every table cardinality by f (minimum 1 row per
// table) — the scale-factor knob for generating the same shape of
// database at different sizes.
func (s GenSpec) Scale(f float64) GenSpec {
	mul := func(n int) int {
		v := int(float64(n) * f)
		if v < 1 {
			v = 1
		}
		return v
	}
	s.Parts = mul(s.Parts)
	s.Suppliers = mul(s.Suppliers)
	s.Customers = mul(s.Customers)
	s.Orders = mul(s.Orders)
	s.LineItems = mul(s.LineItems)
	return s
}

// Data holds generated rows keyed by table name; each row is a slice of
// int64 values aligned with the schema's column order (strings are
// dictionary-coded small integers, dates are days).
type Data map[string][][]int64

// Generate builds a consistent synthetic TPC-R mini database: every
// foreign key hits an existing primary key, so all Q8 joins are
// non-empty.
func Generate(spec GenSpec) Data {
	rng := rand.New(rand.NewSource(spec.Seed))
	d := Data{}

	const nations = 25
	const regions = 5
	for i := 0; i < regions; i++ {
		d["region"] = append(d["region"], []int64{int64(i), int64(i)})
	}
	for i := 0; i < nations; i++ {
		d["nation"] = append(d["nation"], []int64{int64(i), int64(i), int64(i % regions)})
	}
	for i := 0; i < spec.Parts; i++ {
		d["part"] = append(d["part"], []int64{
			int64(i), rng.Int63n(1 << 30), rng.Int63n(10), rng.Int63n(50),
		})
	}
	for i := 0; i < spec.Suppliers; i++ {
		d["supplier"] = append(d["supplier"], []int64{
			int64(i), rng.Int63n(1 << 30), rng.Int63n(nations),
		})
	}
	for i := 0; i < spec.Customers; i++ {
		d["customer"] = append(d["customer"], []int64{int64(i), rng.Int63n(nations)})
	}
	for i := 0; i < spec.Orders; i++ {
		d["orders"] = append(d["orders"], []int64{
			int64(i), rng.Int63n(int64(spec.Customers)), 9131 + rng.Int63n(730),
		})
	}
	for i := 0; i < spec.LineItems; i++ {
		d["lineitem"] = append(d["lineitem"], []int64{
			rng.Int63n(int64(spec.Orders)),
			rng.Int63n(int64(spec.Parts)),
			rng.Int63n(int64(spec.Suppliers)),
			100 + rng.Int63n(10000),
			rng.Int63n(11),
		})
	}
	// The catalog declares lineitem_orderkey clustered (as TPC-H's dbgen
	// does: lineitems are emitted grouped under their order), so store
	// the table in that order. The stable sort keeps generation
	// deterministic; the row multiset — and every checksum over it — is
	// unchanged.
	sort.SliceStable(d["lineitem"], func(i, j int) bool {
		return d["lineitem"][i][0] < d["lineitem"][j][0]
	})
	return d
}
