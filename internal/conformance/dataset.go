package conformance

import (
	"fmt"
	"strconv"
	"strings"

	"orderopt/internal/catalog"
	"orderopt/internal/exec"
	"orderopt/internal/querygen"
	"orderopt/internal/sqlparse"
	"orderopt/internal/tpcr"
)

// tpcrReg is the shared TPC-R dataset registry. Each tier loads on
// first use; its rows and presorted index views are immutable and safe
// to share across fixtures (statistics are applied to each fixture's
// own catalog, not to the dataset).
var tpcrReg = exec.TPCRLazyRegistry()

// Resolve materializes a fixture's query and data: the SQL is bound
// against the dataset's catalog (a fresh one per call — planning
// statistics are restated to the dataset and must not leak between
// fixtures) and the dataset's rows and index views are returned ready
// for execution.
func Resolve(f *Fixture) (*exec.Dataset, *sqlparse.BoundQuery, error) {
	stmt, err := sqlparse.Parse(f.SQL)
	if err != nil {
		return nil, nil, fmt.Errorf("fixture %s: %w", f.Name, err)
	}
	if strings.HasPrefix(f.Dataset, "gen:") {
		return resolveGen(f, stmt)
	}
	ds, ok := tpcrReg.Get(f.Dataset)
	if !ok {
		return nil, nil, fmt.Errorf("fixture %s: unknown dataset %q", f.Name, f.Dataset)
	}
	cat := tpcr.Schema()
	q, err := sqlparse.Bind(stmt, cat)
	if err != nil {
		return nil, nil, fmt.Errorf("fixture %s: %w", f.Name, err)
	}
	ds.ApplyStats(q.Graph)
	return ds, q, nil
}

// Catalog returns the catalog a fixture's SQL binds against — the
// TPC-R schema or the generated gen:* schema. It lets a fixture's
// whole world be served by a real planner+executor server (the
// streaming conformance test replays the corpus over HTTP).
func Catalog(f *Fixture) (*catalog.Catalog, error) {
	if !strings.HasPrefix(f.Dataset, "gen:") {
		return tpcr.Schema(), nil
	}
	spec, _, _, err := parseGenSpec(f.Dataset)
	if err != nil {
		return nil, fmt.Errorf("fixture %s: %w", f.Name, err)
	}
	cat, _, err := querygen.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("fixture %s: %w", f.Name, err)
	}
	return cat, nil
}

// resolveGen handles "gen:<relations>x<rowsPerTable>:<seed>" datasets:
// a deterministic synthetic schema (tables r0..r(n-1), columns c0..c4,
// a clustered index on each c0) with seeded uniform data over the
// tables the query actually references.
func resolveGen(f *Fixture, stmt *sqlparse.SelectStmt) (*exec.Dataset, *sqlparse.BoundQuery, error) {
	spec, rows, seed, err := parseGenSpec(f.Dataset)
	if err != nil {
		return nil, nil, fmt.Errorf("fixture %s: %w", f.Name, err)
	}
	cat, _, err := querygen.Generate(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("fixture %s: %w", f.Name, err)
	}
	q, err := sqlparse.Bind(stmt, cat)
	if err != nil {
		return nil, nil, fmt.Errorf("fixture %s: %w", f.Name, err)
	}
	ds := exec.NewDataset(f.Dataset,
		fmt.Sprintf("conformance synthetic: %d tables × %d rows, seed %d", spec.Relations, rows, seed),
		cat, querygen.GenerateData(q.Graph, rows, seed+500))
	ds.ApplyStats(q.Graph)
	return ds, q, nil
}

// parseGenSpec decodes "gen:<relations>x<rowsPerTable>:<seed>". The
// querygen spec only contributes the schema — the fixture's SQL
// declares the join topology itself.
func parseGenSpec(name string) (querygen.Spec, int, int64, error) {
	parts := strings.Split(name, ":")
	if len(parts) != 3 {
		return querygen.Spec{}, 0, 0, fmt.Errorf("conformance: bad gen dataset %q (want gen:<relations>x<rows>:<seed>)", name)
	}
	dims, seedStr := parts[1], parts[2]
	rel, rowsStr, ok := strings.Cut(dims, "x")
	if !ok {
		return querygen.Spec{}, 0, 0, fmt.Errorf("conformance: bad gen dims %q", dims)
	}
	n, err := strconv.Atoi(rel)
	if err != nil || n < 1 {
		return querygen.Spec{}, 0, 0, fmt.Errorf("conformance: bad gen relation count %q", rel)
	}
	rows, err := strconv.Atoi(rowsStr)
	if err != nil || rows < 1 {
		return querygen.Spec{}, 0, 0, fmt.Errorf("conformance: bad gen row count %q", rowsStr)
	}
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		return querygen.Spec{}, 0, 0, fmt.Errorf("conformance: bad gen seed %q", seedStr)
	}
	// Chain is arbitrary: the schema draws happen before any topology
	// draws, so the generated catalog depends only on (relations, seed).
	return querygen.Spec{Relations: n, Shape: querygen.Chain, Seed: seed, NoOrderBy: true}, rows, seed, nil
}
