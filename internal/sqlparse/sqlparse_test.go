package sqlparse

import (
	"strings"
	"testing"

	"orderopt/internal/catalog"
	"orderopt/internal/core"
	"orderopt/internal/nfsm"
	"orderopt/internal/query"
	"orderopt/internal/tpcr"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("select a, b1 from t where a >= 1.5 and b1 <> 'it''s' -- comment\n;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "b1", "FROM", "t", "WHERE", "a", ">=", "1.5", "AND", "b1", "<>", "it's", ";", ""}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[0] != TokKeyword || kinds[1] != TokIdent || kinds[9] != TokNumber || kinds[13] != TokString {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("select 'unterminated"); err == nil {
		t.Error("unterminated string must fail")
	}
	if _, err := Lex("select #"); err == nil {
		t.Error("bad character must fail")
	}
}

func TestParseSimpleQuery(t *testing.T) {
	stmt, err := Parse(`
		select *
		from persons, jobs
		where persons.jobid = jobs.id and jobs.salary > 50000
		order by jobs.id, persons.name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Items) != 1 || !stmt.Items[0].Star {
		t.Error("expected SELECT *")
	}
	if len(stmt.From) != 2 {
		t.Errorf("FROM items = %d", len(stmt.From))
	}
	if stmt.Where == nil {
		t.Error("missing WHERE")
	}
	if len(stmt.OrderBy) != 2 {
		t.Errorf("ORDER BY items = %d", len(stmt.OrderBy))
	}
	// Round-trip through String must stay parseable.
	if _, err := Parse(stmt.String()); err != nil {
		t.Errorf("round-trip parse failed: %v", err)
	}
}

func TestParseQ8Verbatim(t *testing.T) {
	stmt, err := Parse(tpcr.Query8SQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.From) != 1 {
		t.Fatalf("FROM items = %d, want 1 derived table", len(stmt.From))
	}
	sub, ok := stmt.From[0].(*SubqueryRef)
	if !ok {
		t.Fatalf("FROM item is %T, want subquery", stmt.From[0])
	}
	if sub.Alias != "all_nations" {
		t.Errorf("alias = %q", sub.Alias)
	}
	if len(sub.Select.From) != 8 {
		t.Errorf("inner FROM items = %d, want 8", len(sub.Select.From))
	}
	if len(stmt.GroupBy) != 1 || len(stmt.OrderBy) != 1 {
		t.Error("missing GROUP BY / ORDER BY")
	}
	if len(stmt.Items) != 2 {
		t.Errorf("select items = %d, want 2", len(stmt.Items))
	}
	if stmt.Items[1].Alias != "mkt_share" {
		t.Errorf("second item alias = %q", stmt.Items[1].Alias)
	}
	// The CASE WHEN / EXTRACT / DATE constructs must round-trip.
	if _, err := Parse(stmt.String()); err != nil {
		t.Errorf("round-trip parse failed: %v", err)
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []string{
		"select a from t where a between 1 and 2",
		"select a from t where a not between 1 and 2",
		"select a from t where not a = 1",
		"select a from t where a like 'x%'",
		"select a from t where a not like 'x%'",
		"select a+b*c from t",
		"select -a from t",
		"select sum(a) as s from t group by b",
		"select count(*) from t",
		"select case when a = 1 then 2 else 3 end from t",
		"select extract(year from d) from t",
		"select a from t where (a = 1 or b = 2) and c = 3",
		"select a from (select a from t) as sub",
		"select distinct a from t",
		"select a from t order by a desc, b asc",
		"select t.a x from t",
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err != nil {
			t.Errorf("%q: %v", sql, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"select",
		"select a",
		"select a from",
		"select a from t where",
		"select a from t group a",
		"select a from t order a",
		"select a from (select b from u)", // derived table without alias
		"select case end from t",
		"select a from t alias1 alias2",  // two trailing identifiers
		"select a from t where a not in", // NOT without BETWEEN/LIKE
		"select extract(year d) from t",
		"select a from t where a between 1",
		"select date from t", // DATE without literal
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err == nil {
			t.Errorf("%q: expected error", sql)
		}
	}
}

func TestOperatorPrecedence(t *testing.T) {
	stmt, err := Parse("select a from t where a = 1 or b = 2 and c = 3")
	if err != nil {
		t.Fatal(err)
	}
	top, ok := stmt.Where.(*BinaryExpr)
	if !ok || top.Op != "OR" {
		t.Fatalf("top op = %v, want OR", stmt.Where)
	}
	right, ok := top.Right.(*BinaryExpr)
	if !ok || right.Op != "AND" {
		t.Fatalf("right arm = %v, want AND", top.Right)
	}

	stmt2, _ := Parse("select a + b * c from t")
	add, ok := stmt2.Items[0].Expr.(*BinaryExpr)
	if !ok || add.Op != "+" {
		t.Fatalf("top arithmetic = %v, want +", stmt2.Items[0].Expr)
	}
	if mul, ok := add.Right.(*BinaryExpr); !ok || mul.Op != "*" {
		t.Fatalf("right arithmetic = %v, want *", add.Right)
	}
}

// --- binder ---

func TestBindSimpleQuery(t *testing.T) {
	cat := simpleCatalog()
	stmt, err := Parse(`
		select *
		from persons, jobs
		where persons.jobid = jobs.id and jobs.salary > 50000
		order by jobs.id, persons.name`)
	if err != nil {
		t.Fatal(err)
	}
	bq, err := Bind(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	g := bq.Graph
	if len(g.Relations) != 2 || len(g.Edges) != 1 {
		t.Fatalf("graph: %d relations, %d edges", len(g.Relations), len(g.Edges))
	}
	if len(g.Relations[1].ConstPreds) != 1 || g.Relations[1].ConstPreds[0].Kind != query.RangePred {
		t.Errorf("jobs selection missing: %+v", g.Relations[1].ConstPreds)
	}
	if len(g.OrderBy) != 2 {
		t.Errorf("OrderBy = %v", g.OrderBy)
	}
	if len(bq.Residual) != 0 {
		t.Errorf("unexpected residual predicates: %v", bq.Residual)
	}
	// The bound graph prepares Figures 11–12's machines (unpruned, as
	// the paper draws them). Figure 11's tested order (salary) comes
	// from the range predicate, registered only with
	// TestedSelectionOrders: q0 plus 11 orderings with it, 10 without;
	// 6 DFSM states either way.
	for _, tc := range []struct {
		opt        query.AnalyzeOptions
		nfsm, dfsm int
	}{
		{query.AnalyzeOptions{TestedSelectionOrders: true}, 12, 6},
		{query.AnalyzeOptions{}, 11, 6},
	} {
		a, err := query.Analyze(g, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		fw, err := a.Prepare(core.Options{Pruning: nfsm.NoPruning()})
		if err != nil {
			t.Fatal(err)
		}
		if st := fw.Stats(); st.NFSMStates != tc.nfsm || st.DFSMStates != tc.dfsm {
			t.Errorf("%+v: prepared NFSM %d / DFSM %d states, want %d / %d",
				tc.opt, st.NFSMStates, st.DFSMStates, tc.nfsm, tc.dfsm)
		}
	}
}

func TestBindQ8(t *testing.T) {
	stmt, err := Parse(tpcr.Query8SQL)
	if err != nil {
		t.Fatal(err)
	}
	bq, err := Bind(stmt, tpcr.Schema())
	if err != nil {
		t.Fatal(err)
	}
	g := bq.Graph
	if len(g.Relations) != 8 {
		t.Fatalf("relations = %d, want 8", len(g.Relations))
	}
	if len(g.Edges) != 7 {
		t.Fatalf("edges = %d, want 7", len(g.Edges))
	}
	// r_name = '...' and p_type = '...' are equality selections; the
	// date BETWEEN is a range.
	eq, rng := 0, 0
	for _, r := range g.Relations {
		for _, p := range r.ConstPreds {
			switch p.Kind {
			case query.EqConst:
				eq++
			case query.RangePred:
				rng++
			}
		}
	}
	if eq != 2 || rng != 1 {
		t.Errorf("selections: %d equality, %d range; want 2/1", eq, rng)
	}
	// GROUP BY o_year reduces to the o_orderdate column of orders.
	if len(g.GroupBy) != 1 || len(g.OrderBy) != 1 {
		t.Fatalf("group/order: %v / %v", g.GroupBy, g.OrderBy)
	}
	gb := g.GroupBy[0]
	if g.Relations[gb.Rel].Table.Name != "orders" ||
		g.Relations[gb.Rel].Table.Columns[gb.Col].Name != "o_orderdate" {
		t.Errorf("GROUP BY resolved to %s", g.ColumnName(gb))
	}
	// The derived-table alias map must contain the Q8 projections.
	for _, a := range []string{"o_year", "volume", "nation"} {
		if _, ok := bq.Aliases[a]; !ok {
			t.Errorf("missing alias %s", a)
		}
	}
}

func TestBindErrors(t *testing.T) {
	cat := simpleCatalog()
	cases := []struct {
		sql string
		sub string
	}{
		{"select * from ghost", "unknown table"},
		{"select * from persons, persons", "duplicate relation alias"},
		{"select * from persons p, jobs where id = 1 order by p.name", "ambiguous column"},
		{"select * from persons where ghostcol = 1", "unknown column"},
		{"select * from persons order by zzz.a", "unknown relation"},
		{"select * from persons, jobs order by persons.id", "not connected"},
		{"select * from persons group by id + 1", "cannot map expression"},
		{"select * from persons order by extract(month from id)", "EXTRACT(MONTH FROM id)"},
		{"select * from persons group by extract(day from id)", "EXTRACT(DAY FROM id)"},
		{"select * from (select id from persons group by id) as s", "not supported"},
	}
	for _, tc := range cases {
		stmt, err := Parse(tc.sql)
		if err != nil {
			t.Fatalf("%q: parse: %v", tc.sql, err)
		}
		_, err = Bind(stmt, cat)
		if err == nil || !strings.Contains(err.Error(), tc.sub) {
			t.Errorf("%q: err = %v, want containing %q", tc.sql, err, tc.sub)
		}
	}
}

func TestBindResidualPredicates(t *testing.T) {
	cat := simpleCatalog()
	stmt, err := Parse(`
		select * from persons, jobs
		where persons.jobid = jobs.id
		  and (persons.name = 'x' or jobs.salary = 1)
		  and persons.id = persons.jobid
		order by jobs.id`)
	if err != nil {
		t.Fatal(err)
	}
	bq, err := Bind(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	// The OR disjunction and the same-relation equality are residual.
	if len(bq.Residual) != 2 {
		t.Errorf("residual = %v, want 2 entries", bq.Residual)
	}
	if len(bq.Graph.Edges) != 1 {
		t.Errorf("edges = %d, want 1", len(bq.Graph.Edges))
	}
}

func TestBindExtractOrderColumn(t *testing.T) {
	cat := tpcr.Schema()
	stmt, err := Parse("select extract(year from o_orderdate) as y from orders group by y order by y")
	if err != nil {
		t.Fatal(err)
	}
	bq, err := Bind(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(bq.Graph.GroupBy) != 1 || len(bq.Graph.OrderBy) != 1 {
		t.Fatal("group/order missing")
	}
}

func simpleCatalog() *catalog.Catalog {
	c := catalog.New()
	c.MustAdd(&catalog.Table{
		Name: "persons",
		Columns: []catalog.Column{
			{Name: "id", Type: catalog.Int, Distinct: 1000},
			{Name: "name", Type: catalog.String, Distinct: 900},
			{Name: "jobid", Type: catalog.Int, Distinct: 50},
		},
		Rows: 1000,
	})
	c.MustAdd(&catalog.Table{
		Name: "jobs",
		Columns: []catalog.Column{
			{Name: "id", Type: catalog.Int, Distinct: 50},
			{Name: "salary", Type: catalog.Int, Distinct: 40},
		},
		Rows: 50,
	})
	return c
}
