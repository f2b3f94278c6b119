package query

import (
	"testing"

	"orderopt/internal/catalog"
)

func fpTable(name string, rows int64) *catalog.Table {
	return &catalog.Table{
		Name: name,
		Columns: []catalog.Column{
			{Name: "a", Type: catalog.Int, Distinct: 100},
			{Name: "b", Type: catalog.Int, Distinct: 50},
		},
		Rows: rows,
	}
}

// buildGraph wires t0–t1–t2 as a chain with an optional extra edge,
// adding edges in the given sequence.
func buildGraph(t *testing.T, c *catalog.Catalog, edgeOrder [][2]int) *Graph {
	t.Helper()
	g := &Graph{}
	for i := 0; i < 3; i++ {
		tab, _ := c.Table([]string{"t0", "t1", "t2"}[i])
		g.AddRelation(tab.Name, tab)
	}
	for _, e := range edgeOrder {
		if err := g.AddJoin(ColumnRef{Rel: e[0], Col: 0}, ColumnRef{Rel: e[1], Col: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func fpCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	for i, rows := range []int64{1000, 2000, 3000} {
		c.MustAdd(fpTable([]string{"t0", "t1", "t2"}[i], rows))
	}
	return c
}

// TestFingerprintEdgeOrderInsensitive: the same join graph assembled
// with edges (and predicates) in different sequences hashes identically.
func TestFingerprintEdgeOrderInsensitive(t *testing.T) {
	c := fpCatalog(t)
	g1 := buildGraph(t, c, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	g2 := buildGraph(t, c, [][2]int{{1, 2}, {0, 2}, {0, 1}})
	if CanonicalFingerprint(g1.AppendCanonical(nil)) != CanonicalFingerprint(g2.AppendCanonical(nil)) {
		t.Errorf("edge insertion order changed the fingerprint")
	}
	if string(g1.AppendCanonical(nil)) != string(g2.AppendCanonical(nil)) {
		t.Errorf("edge insertion order changed the canonical encoding")
	}
}

// TestFingerprintSensitivity: any semantically meaningful change moves
// the fingerprint.
func TestFingerprintSensitivity(t *testing.T) {
	base := func() *Graph { return buildGraph(t, fpCatalog(t), [][2]int{{0, 1}, {1, 2}}) }
	ref := CanonicalFingerprint(base().AppendCanonical(nil))

	mutations := map[string]func(*Graph){
		"extra edge": func(g *Graph) {
			if err := g.AddJoin(ColumnRef{Rel: 0, Col: 1}, ColumnRef{Rel: 2, Col: 0}); err != nil {
				t.Fatal(err)
			}
		},
		"const pred": func(g *Graph) {
			if err := g.AddConstPred(ConstPred{Col: ColumnRef{Rel: 0, Col: 0}, Kind: EqConst}); err != nil {
				t.Fatal(err)
			}
		},
		"order by": func(g *Graph) {
			g.OrderBy = []ColumnRef{{Rel: 1, Col: 0}}
		},
		"group by": func(g *Graph) {
			g.GroupBy = []ColumnRef{{Rel: 1, Col: 0}}
		},
	}
	for name, mutate := range mutations {
		g := base()
		mutate(g)
		if CanonicalFingerprint(g.AppendCanonical(nil)) == ref {
			t.Errorf("%s did not change the fingerprint", name)
		}
	}

	// Different table statistics (cardinality) must change it too.
	c := catalog.New()
	c.MustAdd(fpTable("t0", 999999))
	c.MustAdd(fpTable("t1", 2000))
	c.MustAdd(fpTable("t2", 3000))
	if CanonicalFingerprint(buildGraph(t, c, [][2]int{{0, 1}, {1, 2}}).AppendCanonical(nil)) == ref {
		t.Errorf("table cardinality did not change the fingerprint")
	}
}

// TestFingerprintOrderByIsOrderSensitive: ORDER BY (a, b) and (b, a)
// are different requirements and must not collide.
func TestFingerprintOrderByIsOrderSensitive(t *testing.T) {
	g1 := buildGraph(t, fpCatalog(t), [][2]int{{0, 1}, {1, 2}})
	g2 := buildGraph(t, fpCatalog(t), [][2]int{{0, 1}, {1, 2}})
	g1.OrderBy = []ColumnRef{{Rel: 0, Col: 0}, {Rel: 0, Col: 1}}
	g2.OrderBy = []ColumnRef{{Rel: 0, Col: 1}, {Rel: 0, Col: 0}}
	if CanonicalFingerprint(g1.AppendCanonical(nil)) == CanonicalFingerprint(g2.AppendCanonical(nil)) {
		t.Errorf("ORDER BY column sequence did not change the fingerprint")
	}
}
