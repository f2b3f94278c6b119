package query

import (
	"errors"
	"fmt"
	"testing"

	"orderopt/internal/catalog"
	"orderopt/internal/core"
	"orderopt/internal/order"
)

func personsJobs() (*catalog.Catalog, *Graph) {
	c := catalog.New()
	c.MustAdd(&catalog.Table{
		Name: "persons",
		Columns: []catalog.Column{
			{Name: "id", Type: catalog.Int, Distinct: 1000},
			{Name: "name", Type: catalog.String, Distinct: 900},
			{Name: "jobid", Type: catalog.Int, Distinct: 50},
		},
		Rows: 1000,
		Indexes: []catalog.Index{
			{Name: "persons_id", Columns: []string{"id"}, Unique: true, Clustered: true},
		},
	})
	c.MustAdd(&catalog.Table{
		Name: "jobs",
		Columns: []catalog.Column{
			{Name: "id", Type: catalog.Int, Distinct: 50},
			{Name: "salary", Type: catalog.Int, Distinct: 40},
		},
		Rows: 50,
	})
	persons, _ := c.Table("persons")
	jobs, _ := c.Table("jobs")

	g := &Graph{}
	p := g.AddRelation("persons", persons)
	j := g.AddRelation("jobs", jobs)
	// persons.jobid = jobs.id
	if err := g.AddJoin(ColumnRef{p, 2}, ColumnRef{j, 0}); err != nil {
		panic(err)
	}
	// jobs.salary > 50000
	if err := g.AddConstPred(ConstPred{Col: ColumnRef{j, 1}, Kind: RangePred}); err != nil {
		panic(err)
	}
	// order by jobs.id, persons.name
	g.OrderBy = []ColumnRef{{j, 0}, {p, 1}}
	return c, g
}

func TestGraphBasics(t *testing.T) {
	_, g := personsJobs()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) != 1 {
		t.Fatalf("edges = %d, want 1", len(g.Edges))
	}
	a, b := g.Edges[0].Rels()
	if a != 0 || b != 1 {
		t.Errorf("edge rels = %d,%d", a, b)
	}
	if got := g.ColumnName(ColumnRef{0, 2}); got != "persons.jobid" {
		t.Errorf("ColumnName = %q", got)
	}
	if !g.Connected(0b11) || g.Connected(0) {
		t.Error("Connected broken")
	}
	if es := g.EdgesBetween(0b01, 0b10); len(es) != 1 || es[0] != 0 {
		t.Errorf("EdgesBetween = %v", es)
	}
	if es := g.EdgesBetween(0b01, 0b01); len(es) != 0 {
		t.Errorf("EdgesBetween same side = %v", es)
	}
}

func TestEdgeMasks(t *testing.T) {
	// Chain t0–t1–t2 plus a closing edge t0–t2.
	c := catalog.New()
	g := &Graph{}
	for i := 0; i < 3; i++ {
		tab := &catalog.Table{
			Name:    fmt.Sprintf("t%d", i),
			Columns: []catalog.Column{{Name: "a", Type: catalog.Int, Distinct: 10}},
			Rows:    100,
		}
		c.MustAdd(tab)
		g.AddRelation(tab.Name, tab)
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if err := g.AddJoin(ColumnRef{e[0], 0}, ColumnRef{e[1], 0}); err != nil {
			t.Fatal(err)
		}
	}
	m := g.EdgeMasks()
	wantEdges := []uint64{0b011, 0b110, 0b101}
	for e, want := range wantEdges {
		if m.Edge[e] != want {
			t.Errorf("Edge[%d] = %b, want %b", e, m.Edge[e], want)
		}
	}
	wantAdj := []uint64{0b110, 0b101, 0b011}
	for r, want := range wantAdj {
		if m.Adj[r] != want {
			t.Errorf("Adj[%d] = %b, want %b", r, m.Adj[r], want)
		}
	}
	wantInc := []uint64{0b101, 0b011, 0b110} // edge-index bitsets
	for r, want := range wantInc {
		if m.Incident[r][0] != want {
			t.Errorf("Incident[%d] = %b, want %b", r, m.Incident[r][0], want)
		}
	}
	// EdgesBetween walks the incident bitsets: t0 vs {t1,t2} crosses
	// edges 0 (t0–t1) and 2 (t0–t2) but not 1 (t1–t2).
	if es := g.EdgesBetween(0b001, 0b110); len(es) != 2 || es[0] != 0 || es[1] != 2 {
		t.Errorf("EdgesBetween(001,110) = %v, want [0 2]", es)
	}
	// The cache must invalidate when the graph grows.
	t3 := &catalog.Table{
		Name:    "t3",
		Columns: []catalog.Column{{Name: "a", Type: catalog.Int, Distinct: 10}},
		Rows:    100,
	}
	c.MustAdd(t3)
	g.AddRelation("t3", t3)
	if got := len(g.EdgeMasks().Adj); got != 4 {
		t.Errorf("cached masks not rebuilt: %d relations", got)
	}
	if err := g.AddJoin(ColumnRef{2, 0}, ColumnRef{3, 0}); err != nil {
		t.Fatal(err)
	}
	if got := len(g.EdgeMasks().Edge); got != 4 {
		t.Errorf("cached masks not rebuilt: %d edges", got)
	}
	if !g.Connected(0b1111) {
		t.Error("extended graph should be connected")
	}
}

func TestAddJoinMergesPredicatesPerPair(t *testing.T) {
	c := catalog.New()
	c.MustAdd(&catalog.Table{Name: "t1", Columns: []catalog.Column{{Name: "a"}, {Name: "b"}}, Rows: 10})
	c.MustAdd(&catalog.Table{Name: "t2", Columns: []catalog.Column{{Name: "a"}, {Name: "b"}}, Rows: 10})
	t1, _ := c.Table("t1")
	t2, _ := c.Table("t2")
	g := &Graph{}
	r1 := g.AddRelation("t1", t1)
	r2 := g.AddRelation("t2", t2)
	if err := g.AddJoin(ColumnRef{r2, 0}, ColumnRef{r1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddJoin(ColumnRef{r1, 1}, ColumnRef{r2, 1}); err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) != 1 || len(g.Edges[0].Preds) != 2 {
		t.Fatalf("edges = %+v, want one edge with two predicates", g.Edges)
	}
	// Predicates are normalized so the lower relation index is Left.
	for _, p := range g.Edges[0].Preds {
		if p.Left.Rel != 0 || p.Right.Rel != 1 {
			t.Errorf("predicate not normalized: %+v", p)
		}
	}
}

func TestGraphErrors(t *testing.T) {
	_, g := personsJobs()
	if err := g.AddJoin(ColumnRef{0, 0}, ColumnRef{0, 1}); err == nil {
		t.Error("self-join predicate within one relation must fail")
	}
	if err := g.AddJoin(ColumnRef{7, 0}, ColumnRef{0, 0}); err == nil {
		t.Error("out-of-range relation must fail")
	}
	if err := g.AddJoin(ColumnRef{0, 99}, ColumnRef{1, 0}); err == nil {
		t.Error("out-of-range column must fail")
	}
	if err := g.AddConstPred(ConstPred{Col: ColumnRef{9, 0}}); err == nil {
		t.Error("const pred on unknown relation must fail")
	}
	empty := &Graph{}
	if err := empty.Validate(); err == nil {
		t.Error("empty graph must not validate")
	}
}

func TestDisconnectedGraphInvalid(t *testing.T) {
	c := catalog.New()
	c.MustAdd(&catalog.Table{Name: "t1", Columns: []catalog.Column{{Name: "a"}}, Rows: 1})
	c.MustAdd(&catalog.Table{Name: "t2", Columns: []catalog.Column{{Name: "a"}}, Rows: 1})
	t1, _ := c.Table("t1")
	t2, _ := c.Table("t2")
	g := &Graph{}
	g.AddRelation("t1", t1)
	g.AddRelation("t2", t2)
	if err := g.Validate(); err == nil {
		t.Error("disconnected graph must not validate")
	}
}

// The §6.1 query: the analysis must produce the interesting orders and
// the FD set the paper lists.
func TestAnalyzeSimpleQuery(t *testing.T) {
	_, g := personsJobs()
	a, err := Analyze(g, AnalyzeOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sets) != 1 {
		t.Fatalf("FD sets = %d, want 1 (the join equation)", len(a.Sets))
	}
	if a.Sets[0].FDs[0].Kind != order.KindEquation {
		t.Errorf("edge FD kind = %v, want equation", a.Sets[0].FDs[0].Kind)
	}
	if a.RelFD[0] != -1 || a.RelFD[1] != -1 {
		t.Errorf("RelFD = %v, want no selection FDs (range pred only)", a.RelFD)
	}
	if a.OrderByOrd == order.EmptyID {
		t.Fatal("missing ORDER BY ordering")
	}
	f, err := a.Prepare(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Produced (jobs.id) and inferring the equation must satisfy the
	// ordering on (persons.jobid).
	lo := a.EdgeOrders[0][0][0] // persons.jobid
	ro := a.EdgeOrders[0][1][0] // jobs.id
	s := f.Produce(ro)
	if s == core.StartState {
		t.Fatal("(jobs.id) must be produced")
	}
	s = f.Infer(s, a.EdgeFD[0])
	if !f.Contains(s, lo) {
		t.Error("after the join equation, (persons.jobid) must be satisfied")
	}
	// The ORDER BY (jobs.id, persons.name) must also be satisfiable from
	// the index ordering (persons.id)... it is not (different relation),
	// but from producing the ORDER BY itself it trivially is.
	s2 := f.Produce(a.OrderByOrd)
	if !f.Contains(s2, a.OrderByOrd) {
		t.Error("produced ORDER BY ordering must contain itself")
	}
}

func TestAnalyzeTestedSelectionOrders(t *testing.T) {
	_, g := personsJobs()
	a, err := Analyze(g, AnalyzeOptions{TestedSelectionOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	f, err := a.Prepare(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// (jobs.salary) is tested-only: it exists in the contains matrix via
	// the NFSM but can never be produced.
	salary := a.Ordering(ColumnRef{1, 1})
	if f.Produce(salary) != core.StartState {
		t.Error("(jobs.salary) must not be producible")
	}
}

func TestAnalyzeGroupBy(t *testing.T) {
	_, g := personsJobs()
	g.GroupBy = []ColumnRef{{0, 1}}
	a, err := Analyze(g, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.GroupByOrd == order.EmptyID {
		t.Fatal("missing GROUP BY ordering")
	}
	f, err := a.Prepare(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if f.Produce(a.GroupByOrd) == core.StartState {
		t.Error("GROUP BY ordering must be producible (by sort)")
	}
}

func TestAnalyzeNoInterestingOrders(t *testing.T) {
	c := catalog.New()
	c.MustAdd(&catalog.Table{Name: "t", Columns: []catalog.Column{{Name: "a"}}, Rows: 10})
	tab, _ := c.Table("t")
	g := &Graph{}
	g.AddRelation("t", tab)
	_, err := Analyze(g, AnalyzeOptions{})
	if !errors.Is(err, ErrNoInterestingOrders) {
		t.Fatalf("err = %v, want ErrNoInterestingOrders", err)
	}
}

func TestAttrStableAcrossCalls(t *testing.T) {
	_, g := personsJobs()
	a, err := Analyze(g, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref := ColumnRef{0, 2}
	if a.Attr(ref) != a.Attr(ref) {
		t.Error("Attr not stable")
	}
	o1 := a.Ordering(ref, ColumnRef{1, 0})
	o2 := a.Ordering(ref, ColumnRef{1, 0})
	if o1 != o2 {
		t.Error("Ordering not stable")
	}
}

func TestOrderingDedupsEquivalentRefs(t *testing.T) {
	_, g := personsJobs()
	a, err := Analyze(g, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The same column twice must not panic the interner.
	o := a.Ordering(ColumnRef{0, 2}, ColumnRef{0, 2})
	if a.Builder.Interner().Len(o) != 1 {
		t.Errorf("duplicate refs should dedup, got len %d", a.Builder.Interner().Len(o))
	}
}

// KeyFDs: after scanning persons (key id), a stream sorted on (id) is
// also sorted on (id, name) — the key determines every other column.
func TestAnalyzeKeyFDs(t *testing.T) {
	c := catalog.New()
	c.MustAdd(&catalog.Table{
		Name: "persons",
		Columns: []catalog.Column{
			{Name: "id", Type: catalog.Int, Distinct: 1000},
			{Name: "name", Type: catalog.String, Distinct: 900},
		},
		Rows: 1000,
		Keys: [][]string{{"id"}},
		Indexes: []catalog.Index{
			{Name: "persons_pk", Columns: []string{"id"}, Unique: true, Clustered: true},
		},
	})
	c.MustAdd(&catalog.Table{
		Name:    "other",
		Columns: []catalog.Column{{Name: "pid", Type: catalog.Int, Distinct: 1000}},
		Rows:    5000,
	})
	persons, _ := c.Table("persons")
	other, _ := c.Table("other")
	g := &Graph{}
	p := g.AddRelation("persons", persons)
	o := g.AddRelation("other", other)
	if err := g.AddJoin(ColumnRef{p, 0}, ColumnRef{o, 0}); err != nil {
		t.Fatal(err)
	}
	g.OrderBy = []ColumnRef{{p, 0}, {p, 1}} // order by id, name

	a, err := Analyze(g, AnalyzeOptions{UseIndexes: true, KeyFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.RelFD[p] < 0 {
		t.Fatal("persons should have a key FD set")
	}
	f, err := a.Prepare(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	idOrd := a.Ordering(ColumnRef{p, 0})
	idName := a.Ordering(ColumnRef{p, 0}, ColumnRef{p, 1})
	s := f.Produce(idOrd)
	if f.Contains(s, idName) {
		t.Fatal("(id, name) must not hold before the key FD applies")
	}
	s = f.Infer(s, a.RelFD[p])
	if !f.Contains(s, idName) {
		t.Fatal("(id, name) must hold after the key FD id → name")
	}

	// Without the option, no key FD set exists.
	a2, err := Analyze(g, AnalyzeOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if a2.RelFD[p] != -1 {
		t.Fatal("KeyFDs off must not create relation FD sets")
	}
}

// Key FDs merge into an existing selection FD set rather than creating a
// second operator handle.
func TestAnalyzeKeyFDsMergeWithSelection(t *testing.T) {
	c := catalog.New()
	c.MustAdd(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "k", Type: catalog.Int, Distinct: 100},
			{Name: "v", Type: catalog.Int, Distinct: 50},
		},
		Rows: 100,
		Keys: [][]string{{"k"}},
	})
	tab, _ := c.Table("t")
	g := &Graph{}
	r := g.AddRelation("t", tab)
	if err := g.AddConstPred(ConstPred{Col: ColumnRef{r, 1}, Kind: EqConst}); err != nil {
		t.Fatal(err)
	}
	g.OrderBy = []ColumnRef{{r, 0}, {r, 1}}
	a, err := Analyze(g, AnalyzeOptions{KeyFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sets) != 1 {
		t.Fatalf("FD sets = %d, want 1 (selection + key merged)", len(a.Sets))
	}
	kinds := map[order.Kind]int{}
	for _, fd := range a.Sets[0].FDs {
		kinds[fd.Kind]++
	}
	if kinds[order.KindConstant] != 1 || kinds[order.KindFD] != 1 {
		t.Fatalf("merged set kinds = %v", kinds)
	}
}

func TestColumnOfReverseLookup(t *testing.T) {
	_, g := personsJobs()
	a, err := Analyze(g, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref := ColumnRef{Rel: 0, Col: 2}
	at := a.Attr(ref)
	back, ok := a.ColumnOf(at)
	if !ok || back != ref {
		t.Fatalf("ColumnOf(%d) = %v,%v", at, back, ok)
	}
	if _, ok := a.ColumnOf(order.Attr(9999)); ok {
		t.Fatal("unknown attribute resolved")
	}
}

func TestConstPredMatches(t *testing.T) {
	eq := ConstPred{Kind: EqConst, Literal: 5, HasLiteral: true}
	if !eq.Matches(5) || eq.Matches(4) {
		t.Error("EqConst.Matches broken")
	}
	rng := ConstPred{Kind: RangePred, Literal: 3, HasLiteral: true}
	if !rng.Matches(3) || !rng.Matches(9) || rng.Matches(2) {
		t.Error("RangePred.Matches broken")
	}
	lk := ConstPred{Kind: LikePred, Literal: 1, HasLiteral: true}
	if !lk.Matches(0) {
		t.Error("LikePred must be vacuously true")
	}
	no := ConstPred{Kind: EqConst}
	if !no.Matches(123) {
		t.Error("predicate without literal must be vacuously true")
	}
}

func TestValidateBadGroupOrderRefs(t *testing.T) {
	_, g := personsJobs()
	g.GroupBy = []ColumnRef{{Rel: 9, Col: 0}}
	if err := g.Validate(); err == nil {
		t.Error("bad GROUP BY ref must fail validation")
	}
	_, g2 := personsJobs()
	g2.OrderBy = []ColumnRef{{Rel: 0, Col: 99}}
	if err := g2.Validate(); err == nil {
		t.Error("bad ORDER BY ref must fail validation")
	}
}

func TestConstPredSelectivity(t *testing.T) {
	c := catalog.New()
	c.MustAdd(&catalog.Table{
		Name:    "t",
		Columns: []catalog.Column{{Name: "a", Distinct: 20}},
		Rows:    100,
	})
	tab, _ := c.Table("t")
	eq := ConstPred{Col: ColumnRef{0, 0}, Kind: EqConst}
	if got := eq.DefaultSelectivity(tab); got != 0.05 {
		t.Errorf("eq selectivity = %v, want 0.05", got)
	}
	rng := ConstPred{Col: ColumnRef{0, 0}, Kind: RangePred}
	if got := rng.DefaultSelectivity(tab); got != 0.3 {
		t.Errorf("range selectivity = %v, want 0.3", got)
	}
	lk := ConstPred{Col: ColumnRef{0, 0}, Kind: LikePred}
	if got := lk.DefaultSelectivity(tab); got != 0.1 {
		t.Errorf("like selectivity = %v, want 0.1", got)
	}
	ov := ConstPred{Col: ColumnRef{0, 0}, Kind: RangePred, Selectivity: 0.42}
	if got := ov.DefaultSelectivity(tab); got != 0.42 {
		t.Errorf("override selectivity = %v, want 0.42", got)
	}
}
