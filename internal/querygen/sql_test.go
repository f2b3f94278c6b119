package querygen

import (
	"fmt"
	"testing"

	"orderopt/internal/catalog"
	"orderopt/internal/query"
	"orderopt/internal/sqlparse"
)

// TestSQLRoundTrip binds the rendered SQL of generated queries back
// against the generating catalog and demands the identical graph —
// modulo predicate literals, which the binder deliberately drops (it
// plans from statistics). This is what the serving workload relies on:
// planning the SQL text must cost and cache exactly like planning the
// graph directly.
func TestSQLRoundTrip(t *testing.T) {
	for _, shape := range Shapes() {
		for seed := int64(0); seed < 3; seed++ {
			spec := Spec{
				Relations:   6,
				Shape:       shape,
				Seed:        seed,
				WithGroupBy: seed%2 == 0,
				TablePrefix: fmt.Sprintf("s%d_", seed),
			}
			if shape != Clique {
				spec.ExtraEdges = 1
			}
			name := fmt.Sprintf("%v/seed%d", shape, seed)
			cat, g, err := Generate(spec)
			if err != nil {
				t.Fatalf("%s: generate: %v", name, err)
			}
			text, err := SQL(g)
			if err != nil {
				t.Fatalf("%s: render: %v", name, err)
			}
			stmt, err := sqlparse.Parse(text)
			if err != nil {
				t.Fatalf("%s: parse %q: %v", name, text, err)
			}
			bq, err := sqlparse.Bind(stmt, cat)
			if err != nil {
				t.Fatalf("%s: bind %q: %v", name, text, err)
			}
			if len(bq.Residual) != 0 {
				t.Errorf("%s: %d residual predicates, want 0", name, len(bq.Residual))
			}
			// The binder never attaches literals; strip them from the
			// original so the canonical encodings are comparable.
			for r := range g.Relations {
				preds := g.Relations[r].ConstPreds
				for i := range preds {
					preds[i].Literal = 0
					preds[i].HasLiteral = false
				}
			}
			got := query.CanonicalFingerprint(bq.Graph.AppendCanonical(nil))
			if want := query.CanonicalFingerprint(g.AppendCanonical(nil)); got != want {
				t.Errorf("%s: bound graph fingerprint %x != generated %x\nsql: %s",
					name, got, want, text)
			}
		}
	}
}

// TestTablePrefixMerge checks that distinctly prefixed generations can
// share one catalog — the serving workload's schema is the union of
// many generated queries plus the TPC-R tables.
func TestTablePrefixMerge(t *testing.T) {
	merged := catalog.New()
	for i := 0; i < 4; i++ {
		_, g, err := Generate(Spec{
			Relations:   5,
			Shape:       Shapes()[i%len(Shapes())],
			Seed:        int64(i),
			TablePrefix: fmt.Sprintf("q%d_", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range g.Relations {
			if err := merged.Add(r.Table); err != nil {
				t.Fatalf("merge q%d: %v", i, err)
			}
		}
	}
	if _, ok := merged.Table("q3_r4"); !ok {
		t.Fatal("merged catalog lacks q3_r4")
	}
}
