package conformance

import (
	"fmt"
	"strings"

	"orderopt/internal/exec"
	"orderopt/internal/optimizer"
	"orderopt/internal/planner"
	"orderopt/internal/query"
)

// Idiom is one order-reasoning configuration: how the planner models
// (or refuses to model) physical orders. The three idioms mirror the
// runtime experiment's variants.
type Idiom struct {
	Name    string
	Analyze query.AnalyzeOptions
	Config  optimizer.Config
}

// Idioms returns the three order-reasoning idioms: the paper's DFSM
// framework as planserverd serves it (planner.DefaultConfig's analysis
// and optimizer settings), the Simmen-style baseline, and an
// order-oblivious planner (no index orders, no merge joins, no ordered
// grouping — hash everything and sort at the very top).
func Idioms() []Idiom {
	served := planner.DefaultConfig(nil)
	oblivious := optimizer.DefaultConfig(optimizer.ModeDFSM)
	oblivious.DisableMergeJoin = true
	oblivious.DisableOrderedGrouping = true
	return []Idiom{
		{
			Name:    "dfsm",
			Analyze: served.Analyze,
			Config:  served.Optimizer,
		},
		{
			Name:    "simmen",
			Analyze: query.AnalyzeOptions{UseIndexes: true},
			Config:  optimizer.DefaultConfig(optimizer.ModeSimmen),
		},
		{
			Name:    "oblivious",
			Analyze: query.AnalyzeOptions{},
			Config:  oblivious,
		},
	}
}

// Cell is one matrix configuration a fixture is planned and executed
// under.
type Cell struct {
	// Idiom indexes Idioms() (dfsm, simmen, oblivious).
	Idiom int
	// DOP is the optimizer's parallelism bound (1 = serial).
	DOP int
	// MergeJoin / OrderedGrouping enable the order-exploiting operator
	// families (both true in the canonical cells; the oblivious idiom
	// has them off regardless).
	MergeJoin       bool
	OrderedGrouping bool
}

// Canonical reports whether this is an idiom's golden-plan cell: serial,
// all operator families enabled.
func (c Cell) Canonical() bool {
	return c.DOP == 1 && c.MergeJoin && c.OrderedGrouping
}

// String names the cell for failure messages: "dfsm/dop1/mj+og+".
func (c Cell) String() string {
	flag := func(b bool) string {
		if b {
			return "+"
		}
		return "-"
	}
	return fmt.Sprintf("%s/dop%d/mj%sog%s",
		Idioms()[c.Idiom].Name, c.DOP, flag(c.MergeJoin), flag(c.OrderedGrouping))
}

// Config is the optimizer configuration the cell plans under: its
// idiom's, with the cell's DOP bound and operator toggles.
func (c Cell) Config() optimizer.Config {
	cfg := Idioms()[c.Idiom].Config
	if c.DOP > 1 {
		cfg.MaxDOP = c.DOP
	}
	if !c.MergeJoin {
		cfg.DisableMergeJoin = true
	}
	if !c.OrderedGrouping {
		cfg.DisableOrderedGrouping = true
	}
	return cfg
}

// Matrix enumerates the full configuration matrix: idiom × DOP ×
// operator toggles, 36 cells. Every cell must produce the identical
// result multiset.
func Matrix() []Cell {
	var out []Cell
	for idiom := range Idioms() {
		for _, dop := range []int{1, 2, 4} {
			for _, mj := range []bool{true, false} {
				for _, og := range []bool{true, false} {
					out = append(out, Cell{Idiom: idiom, DOP: dop, MergeJoin: mj, OrderedGrouping: og})
				}
			}
		}
	}
	return out
}

// Runner executes a fixture across the matrix.
type Runner struct {
	// Hook, when set, interposes on every compiled operator — the seam
	// the bug-demonstration test uses to corrupt an operator and prove
	// the corpus catches it. Nil in normal runs.
	Hook exec.IterHook
	// Cells overrides the matrix (nil runs the full Matrix()).
	Cells []Cell
}

// Run plans and executes the fixture in every matrix cell, enforcing
// the cross-cell invariants (identical row count and multiset checksum
// everywhere, output physically sorted wherever the query demands an
// order), and returns the observed expectation block for golden
// comparison or -update recording.
func (r *Runner) Run(f *Fixture) (Expect, error) {
	ds, q, err := Resolve(f)
	if err != nil {
		return Expect{}, err
	}
	g := q.Graph
	got := Expect{Plans: map[string]string{}}
	idioms := Idioms()

	// One analysis per idiom, shared across that idiom's cells: the
	// analysis depends only on the analyze options, not on the DOP and
	// toggle knobs.
	analyses := make([]*query.Analysis, len(idioms))
	for i, idm := range idioms {
		a, err := query.Analyze(g, idm.Analyze)
		if err != nil {
			return Expect{}, fmt.Errorf("fixture %s: analyze %s: %w", f.Name, idm.Name, err)
		}
		analyses[i] = a
	}
	orderKeys, err := orderKeyResolver(g)
	if err != nil {
		return Expect{}, fmt.Errorf("fixture %s: %w", f.Name, err)
	}

	cells := r.Cells
	if cells == nil {
		cells = Matrix()
	}
	first := true
	for _, cell := range cells {
		idm := idioms[cell.Idiom]
		a := analyses[cell.Idiom]
		prep, err := optimizer.Prepare(a, cell.Config())
		if err != nil {
			return Expect{}, fmt.Errorf("fixture %s cell %s: prepare: %w", f.Name, cell, err)
		}
		res, err := prep.Run()
		if err != nil {
			return Expect{}, fmt.Errorf("fixture %s cell %s: optimize: %w", f.Name, cell, err)
		}

		runner := ds.Runner(a)
		runner.DisableTiming = true
		runner.Hook = r.Hook
		pipe, err := runner.Compile(res.Best)
		if err != nil {
			return Expect{}, fmt.Errorf("fixture %s cell %s: compile: %w", f.Name, cell, err)
		}
		rows, err := pipe.Execute()
		if err != nil {
			return Expect{}, fmt.Errorf("fixture %s cell %s: execute: %w", f.Name, cell, err)
		}

		// Rows-sorted invariant: wherever the query demands an order,
		// the rows coming out of the pipeline must physically carry it —
		// in every cell, parallel ones included.
		if len(g.OrderBy) > 0 {
			if err := checkSorted(rows, orderKeys(pipe.Schema)); err != nil {
				return Expect{}, fmt.Errorf("fixture %s cell %s: %w", f.Name, cell, err)
			}
		}

		sum := cellChecksum(rows, pipe.Schema, g)
		if first {
			first = false
			got.Rows = int64(len(rows))
			got.Checksum = sum
		} else if int64(len(rows)) != got.Rows || sum != got.Checksum {
			return Expect{}, fmt.Errorf(
				"fixture %s cell %s: result diverges: %d rows checksum %d, want %d rows checksum %d (first cell %s)",
				f.Name, cell, len(rows), sum, got.Rows, got.Checksum, cells[0])
		}

		if cell.Canonical() {
			got.Plans[idm.Name] = res.Best.String()
			if idm.Name == "dfsm" && a.OrderByOrd != 0 {
				// The framework's O(1) order verdict is recorded off the
				// canonical dfsm cell.
				if fw := prep.Framework(); fw != nil {
					v := fw.Contains(res.Best.State, a.OrderByOrd)
					got.OrderSatisfied = &v
				}
			}
		}
	}
	return got, nil
}

// cellChecksum reduces one cell's result to the fixture's multiset
// checksum: grouped outputs are positionally fixed by construction
// (grouping columns, then aggregates); ungrouped outputs carry
// plan-dependent column orders and are canonicalized first.
func cellChecksum(rows []exec.Row, schema []query.ColumnRef, g *query.Graph) int64 {
	if len(g.GroupBy) == 0 {
		rows = exec.Canonicalize(rows, schema, g)
	}
	return exec.ChecksumRows(rows)
}

// orderKeyResolver returns a function mapping an output schema to the
// positions of the query's ORDER BY columns, resolving columns the
// schema only carries as join-equated twins through a union-find over
// the graph's equality predicates (the same relaxation the executor's
// own sort-key resolution applies).
func orderKeyResolver(g *query.Graph) (func(schema []query.ColumnRef) []int, error) {
	parent := map[query.ColumnRef]query.ColumnRef{}
	var find func(c query.ColumnRef) query.ColumnRef
	find = func(c query.ColumnRef) query.ColumnRef {
		p, ok := parent[c]
		if !ok || p == c {
			parent[c] = c
			return c
		}
		root := find(p)
		parent[c] = root
		return root
	}
	for e := range g.Edges {
		for _, pred := range g.Edges[e].Preds {
			parent[find(pred.Left)] = find(pred.Right)
		}
	}
	same := func(a, b query.ColumnRef) bool {
		if a == b {
			return true
		}
		_, aok := parent[a]
		_, bok := parent[b]
		return aok && bok && find(a) == find(b)
	}
	for _, c := range g.OrderBy {
		if c.Rel < 0 || c.Rel >= len(g.Relations) {
			return nil, fmt.Errorf("conformance: ORDER BY column out of range")
		}
	}
	return func(schema []query.ColumnRef) []int {
		keys := make([]int, 0, len(g.OrderBy))
		for _, c := range g.OrderBy {
			pos := -1
			for i, s := range schema {
				if same(s, c) {
					pos = i
					break
				}
			}
			if pos < 0 {
				return nil // column not carried: sortedness unverifiable
			}
			keys = append(keys, pos)
		}
		return keys
	}, nil
}

// checkSorted verifies rows are non-decreasing under the lexicographic
// key sequence. A nil key set (column not carried by the schema) skips
// the check rather than failing: the executor's own merge/grouping
// guard rails cover those plans.
func checkSorted(rows []exec.Row, keys []int) error {
	if keys == nil {
		return nil
	}
	for i := 1; i < len(rows); i++ {
		for _, k := range keys {
			if rows[i-1][k] < rows[i][k] {
				break
			}
			if rows[i-1][k] > rows[i][k] {
				return fmt.Errorf("conformance: output not sorted: row %d key col %d: %d after %d",
					i, k, rows[i][k], rows[i-1][k])
			}
		}
	}
	return nil
}

// Diff compares an observed expectation block against the recorded one,
// returning a human-readable list of differences (empty when they
// match).
func Diff(want, got Expect) []string {
	var out []string
	if want.Rows != got.Rows {
		out = append(out, fmt.Sprintf("rows: recorded %d, observed %d", want.Rows, got.Rows))
	}
	if want.Checksum != got.Checksum {
		out = append(out, fmt.Sprintf("checksum: recorded %d, observed %d", want.Checksum, got.Checksum))
	}
	switch {
	case (want.OrderSatisfied == nil) != (got.OrderSatisfied == nil):
		out = append(out, "order-satisfied: presence differs")
	case want.OrderSatisfied != nil && *want.OrderSatisfied != *got.OrderSatisfied:
		out = append(out, fmt.Sprintf("order-satisfied: recorded %v, observed %v", *want.OrderSatisfied, *got.OrderSatisfied))
	}
	for idiom, tree := range got.Plans {
		if want.Plans[idiom] != tree {
			out = append(out, fmt.Sprintf("plan %s:\n--- recorded ---\n%s--- observed ---\n%s",
				idiom, want.Plans[idiom], tree))
		}
	}
	for idiom := range want.Plans {
		if _, ok := got.Plans[idiom]; !ok {
			out = append(out, fmt.Sprintf("plan %s: recorded but not observed", idiom))
		}
	}
	if len(out) > 0 {
		out = append(out, "(run `make conformance-update` to re-record intentional changes)")
	}
	return out
}

// FormatDiff joins Diff output for a failure message.
func FormatDiff(diffs []string) string { return strings.Join(diffs, "\n") }
