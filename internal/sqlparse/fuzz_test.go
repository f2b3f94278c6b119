package sqlparse

import (
	"testing"

	"orderopt/internal/query"
	"orderopt/internal/querygen"
	"orderopt/internal/tpcr"
)

// fuzzSeeds is the checked-in seed corpus: every statement family the
// front end accepts (and a few it must reject gracefully), so the
// fuzzer starts from inputs that reach deep into the binder instead of
// flailing at the lexer.
var fuzzSeeds = []string{
	"select * from orders",
	"select * from orders order by o_orderkey",
	"select * from orders order by o_orderkey limit 10",
	"select * from orders, customer where o_custkey = c_custkey order by o_orderkey limit 0",
	"select * from customer, nation where c_nationkey = n_nationkey order by c_custkey, c_nationkey",
	"select o_custkey, count(*) from orders, customer where o_custkey = c_custkey group by o_custkey",
	"select o_custkey, count(*), sum(o_orderdate), avg(o_orderdate), min(o_orderdate), max(o_orderdate) from orders, customer where o_custkey = c_custkey group by o_custkey order by o_custkey limit 3",
	"select c_nationkey, c_custkey, count(*) from customer, orders where o_custkey = c_custkey group by c_nationkey, c_custkey order by c_nationkey",
	"select * from part, supplier, lineitem where p_partkey = l_partkey and s_suppkey = l_suppkey and p_size > 10 order by p_partkey",
	"select * from customer c, nation n1, nation n2 where c.c_nationkey = n1.n_nationkey and n1.n_regionkey = n2.n_regionkey",
	"select * from (select o_orderkey from orders where o_orderdate >= date '1995-01-01') as t, lineitem where o_orderkey = l_orderkey",
	"select extract(year from o_orderdate) as y from orders group by y order by y",
	"select * from orders where o_orderdate between date '1995-01-01' and date '1996-12-31'",
	"select * from orders limit 9999999999999999999999",
	"select * from orders order by",
	"select count(*) from orders",
	"select sum(l_extendedprice * (1 - l_discount)) as rev, l_orderkey from lineitem group by l_orderkey",
	"select * from orders limit -1",
	"select * from",
	"'",
	"",
	tpcr.Query8SQL,
}

// FuzzSQLRoundTrip drives arbitrary text through the whole front end:
// lex → parse → bind against the TPC-R catalog → render the bound
// graph back to SQL (querygen.SQL) → re-parse and re-bind. Nothing may
// panic, accepted statements must survive the round trip, and the
// canonical fingerprint — the plan cache's identity — must be stable:
// the rebound graph hashes identically to the graph that rendered it,
// so a cached plan can never be recalled for the wrong query by way of
// the SQL renderer.
func FuzzSQLRoundTrip(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err != nil {
			return // rejected input: fine, as long as nothing panicked
		}
		_ = stmt.String() // AST printer must handle anything Parse accepts
		cat := tpcr.Schema()
		q, err := Bind(stmt, cat)
		if err != nil {
			return // parseable but unbindable: fine
		}
		fp := query.CanonicalFingerprint(q.Graph.AppendCanonical(nil))

		rendered, err := querygen.SQL(q.Graph)
		if err != nil {
			// The renderer covers every predicate kind the binder emits;
			// a bound graph it cannot render is a gap in one of the two.
			t.Fatalf("bound graph unrenderable: %v\nsql: %q", err, sql)
		}
		stmt2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendered SQL unparseable: %v\nrendered: %q\nsql: %q", err, rendered, sql)
		}
		q2, err := Bind(stmt2, cat)
		if err != nil {
			t.Fatalf("rendered SQL unbindable: %v\nrendered: %q\nsql: %q", err, rendered, sql)
		}
		if fp2 := query.CanonicalFingerprint(q2.Graph.AppendCanonical(nil)); fp2 != fp {
			t.Fatalf("fingerprint unstable across round trip: %#x != %#x\nrendered: %q\nsql: %q",
				fp2, fp, rendered, sql)
		}
	})
}
