package conformance

import (
	"flag"
	"slices"
	"strings"
	"testing"

	"orderopt/internal/exec"
	"orderopt/internal/optimizer"
	"orderopt/internal/plan"
	"orderopt/internal/planner"
	"orderopt/internal/query"
)

var update = flag.Bool("update", false, "re-record fixture expectation blocks (checksums, verdicts, golden plans)")

// MinFixtures is the corpus floor: the fixture set must keep covering
// at least this many scenarios.
const MinFixtures = 30

// TestCorpus runs every fixture across the full configuration matrix,
// asserting the cross-cell invariants and the recorded expectations.
// With -update, the observed expectations are written back instead.
func TestCorpus(t *testing.T) {
	fixtures, err := Load("testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) < MinFixtures {
		t.Fatalf("corpus shrank: %d fixtures, want at least %d", len(fixtures), MinFixtures)
	}
	for _, f := range fixtures {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			r := &Runner{}
			got, err := r.Run(f)
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				f.Expect = got
				if err := f.Save(); err != nil {
					t.Fatal(err)
				}
				return
			}
			if diffs := Diff(f.Expect, got); len(diffs) > 0 {
				t.Errorf("fixture %s:\n%s", f.Name, FormatDiff(diffs))
			}
		})
	}
}

// TestMatrixShape pins the matrix dimensions the corpus promises:
// 3 idioms × 3 DOPs × 2 × 2 operator toggles — 36 distinct cells, each
// named by exactly those three segments, so a new dimension (execution
// dialect, batch size, ...) fails here first.
func TestMatrixShape(t *testing.T) {
	m := Matrix()
	if len(m) != 36 {
		t.Fatalf("matrix has %d cells, want 36", len(m))
	}
	names := map[string]bool{}
	canonical := 0
	for _, c := range m {
		if c.Canonical() {
			canonical++
		}
		name := c.String()
		if names[name] {
			t.Errorf("cell %s appears twice", name)
		}
		names[name] = true
		if strings.Count(name, "/") != 2 {
			t.Errorf("cell %s: want idiom/dop/toggles and nothing else", name)
		}
	}
	if canonical != 3 {
		t.Fatalf("matrix has %d canonical cells, want 3 (one per idiom)", canonical)
	}
}

// TestCorpusPinsServedPlans: the recorded dfsm plans are the plans the
// served configuration chooses. Every fixture planned with
// planner.DefaultConfig as served (at MaxDOP 1) must produce its
// recorded dfsm plan tree, so the dfsm idiom cannot drift from what
// planserverd plans.
func TestCorpusPinsServedPlans(t *testing.T) {
	fixtures, err := Load("testdata")
	if err != nil {
		t.Fatal(err)
	}
	served := planner.DefaultConfig(nil)
	served.Optimizer.MaxDOP = 1
	for _, f := range fixtures {
		_, q, err := Resolve(f)
		if err != nil {
			t.Fatal(err)
		}
		a, err := query.Analyze(q.Graph, served.Analyze)
		if err != nil {
			t.Fatal(err)
		}
		res, err := optimizer.Optimize(a, served.Optimizer)
		if err != nil {
			t.Fatalf("fixture %s: %v", f.Name, err)
		}
		if got, want := res.Best.String(), f.Expect.Plans["dfsm"]; got != want {
			t.Errorf("fixture %s: the served configuration plans\n%sthe recorded dfsm plan is\n%s", f.Name, got, want)
		}
	}
}

// dropFirstRow is the deliberately broken operator of the
// bug-demonstration test: it swallows the first row its input emits.
type dropFirstRow struct {
	in      exec.Iterator
	dropped bool
}

func (d *dropFirstRow) Open() error { d.dropped = false; return d.in.Open() }
func (d *dropFirstRow) Next() (exec.Row, bool, error) {
	row, ok, err := d.in.Next()
	if ok && !d.dropped {
		d.dropped = true
		return d.in.Next()
	}
	return row, ok, err
}
func (d *dropFirstRow) Close() error { return d.in.Close() }

// TestCorpusCatchesOperatorBug demonstrates the corpus's purpose: a
// deliberately-introduced operator bug (a merge join that drops its
// first output row) must not survive the matrix. Cells whose plans use
// the broken operator diverge from cells whose plans don't — the
// oblivious idiom never merge-joins — so the identical-checksum
// invariant trips.
func TestCorpusCatchesOperatorBug(t *testing.T) {
	f, err := ParseFile("testdata/orderstream-small.fixture")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f.Expect.Plans["dfsm"], plan.MergeJoin.String()) {
		t.Fatalf("fixture %s no longer merge-joins in its dfsm plan; pick another demonstration fixture", f.Name)
	}
	hook := func(op, detail string, it exec.Iterator, life *exec.Life) exec.Iterator {
		if op == plan.MergeJoin.String() {
			return &dropFirstRow{in: it}
		}
		return it
	}
	// The canonical dfsm cell merge-joins; the canonical oblivious cell
	// cannot. One of the two must disagree with the recorded corpus —
	// and since Run compares cells against each other, the pair alone
	// already trips the invariant.
	var cells []Cell
	for _, c := range Matrix() {
		if c.Canonical() {
			cells = append(cells, c)
		}
	}
	r := &Runner{Hook: hook, Cells: cells}
	got, err := r.Run(f)
	if err != nil {
		// The cross-cell checksum invariant caught the corruption.
		if !strings.Contains(err.Error(), "diverges") {
			t.Fatalf("expected a divergence failure, got: %v", err)
		}
		return
	}
	// All cells agreed with each other (possible if every canonical
	// plan merge-joined); the recorded checksum must still disagree.
	if diffs := Diff(f.Expect, got); len(diffs) == 0 {
		t.Fatal("corrupted merge join produced the recorded corpus result; the corpus failed to catch the bug")
	}
}

// TestFixtureRoundTrip pins the fixture format: parse(format(f)) == f.
func TestFixtureRoundTrip(t *testing.T) {
	sat := true
	f := &Fixture{
		Name:    "rt",
		Desc:    "round trip",
		Dataset: "tpcr-small",
		SQL:     "select * from orders, customer where o_custkey = c_custkey order by o_orderkey",
		Expect: Expect{
			Rows:           42,
			Checksum:       -7,
			OrderSatisfied: &sat,
			Plans: map[string]string{
				"dfsm": "MergeJoin (cost=1.0 card=2.0) edge=0\n  IndexScan (cost=1.0 card=1.0) rel=0 index=0\n  IndexScan (cost=1.0 card=1.0) rel=1 index=0\n",
			},
		},
	}
	back, err := Parse(f.Format())
	if err != nil {
		t.Fatal(err)
	}
	if back.Desc != f.Desc || back.Dataset != f.Dataset || back.SQL != f.SQL {
		t.Fatalf("header did not round-trip: %+v", back)
	}
	if back.Expect.Rows != f.Expect.Rows || back.Expect.Checksum != f.Expect.Checksum {
		t.Fatalf("expect block did not round-trip: %+v", back.Expect)
	}
	if back.Expect.OrderSatisfied == nil || *back.Expect.OrderSatisfied != sat {
		t.Fatalf("order-satisfied did not round-trip")
	}
	if back.Expect.Plans["dfsm"] != f.Expect.Plans["dfsm"] {
		t.Fatalf("plan tree did not round-trip:\n%q\nwant\n%q", back.Expect.Plans["dfsm"], f.Expect.Plans["dfsm"])
	}
}

// TestResidentBuildEquivalence: adopting a dataset-resident build table
// changes where a hash join's table comes from and nothing else. Every
// fixture, under each idiom at DOP 1, 2 and 4, is compiled twice — as
// served, and with a pass-through hook, under which nothing is adopted
// and every build side streams per execution — and both pipelines must
// deliver the same row sequence, sort the same number of rows, carry
// one stats entry per plan node, and count the same rows on every entry
// no Limit cuts short.
func TestResidentBuildEquivalence(t *testing.T) {
	fixtures, err := Load("testdata")
	if err != nil {
		t.Fatal(err)
	}
	passThrough := func(op, detail string, it exec.Iterator, life *exec.Life) exec.Iterator { return it }
	adopted := 0
	for _, f := range fixtures {
		ds, q, err := Resolve(f)
		if err != nil {
			t.Fatal(err)
		}
		for idiom, idm := range Idioms() {
			a, err := query.Analyze(q.Graph, idm.Analyze)
			if err != nil {
				t.Fatal(err)
			}
			for _, dop := range []int{1, 2, 4} {
				cell := Cell{Idiom: idiom, DOP: dop, MergeJoin: true, OrderedGrouping: true}
				res, err := optimizer.Optimize(a, cell.Config())
				if err != nil {
					t.Fatalf("fixture %s cell %s: %v", f.Name, cell, err)
				}
				nodes := 0
				for _, count := range res.Best.Ops() {
					nodes += count
				}
				run := func(hook exec.IterHook) (*exec.Pipeline, []exec.Row) {
					r := ds.Runner(a)
					r.Hook = hook
					p, err := r.Compile(res.Best)
					if err != nil {
						t.Fatalf("fixture %s cell %s: compile: %v", f.Name, cell, err)
					}
					rows, err := p.Execute()
					if err != nil {
						t.Fatalf("fixture %s cell %s: execute: %v", f.Name, cell, err)
					}
					if len(p.Ops) != nodes {
						t.Errorf("fixture %s cell %s: %d stats entries for %d plan nodes", f.Name, cell, len(p.Ops), nodes)
					}
					return p, rows
				}
				served, got := run(nil)
				streamed, want := run(passThrough)
				if !slices.EqualFunc(got, want, func(x, y exec.Row) bool { return slices.Equal(x, y) }) {
					t.Errorf("fixture %s cell %s: adopting resident builds changed the row sequence", f.Name, cell)
				}
				if served.RowsSorted() != streamed.RowsSorted() {
					t.Errorf("fixture %s cell %s: rows sorted %d with adoption, %d without", f.Name, cell, served.RowsSorted(), streamed.RowsSorted())
				}
				for i, op := range served.Ops {
					// Same preorder either way; an adopted scan reports what
					// its streamed twin emitted into the build, Limit or not.
					s := streamed.Ops[i]
					if s.Op != op.Op || s.Detail != op.Detail || s.Resident || ((op.Resident || !op.Limited) && s.Rows != op.Rows) {
						t.Errorf("fixture %s cell %s: entry %d is %+v with adoption, %+v without", f.Name, cell, i, *op, *s)
					}
					if op.Resident {
						adopted++
					}
				}
			}
		}
	}
	if adopted == 0 {
		t.Error("no cell adopted a resident build table; the corpus no longer exercises the path")
	}
}

// TestPoisonedChunks runs the corpus with the executor's chunk pools
// poisoning every chunk they get back, and requires the recorded
// expectations, which are the unpoisoned results: no cell reads a row
// after its pipeline recycled the chunk the row was carved from.
func TestPoisonedChunks(t *testing.T) {
	fixtures, err := Load("testdata")
	if err != nil {
		t.Fatal(err)
	}
	exec.PoisonRecycledChunks.Store(true)
	t.Cleanup(func() { exec.PoisonRecycledChunks.Store(false) })
	for _, f := range fixtures {
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			got, err := (&Runner{}).Run(f)
			if err != nil {
				t.Fatal(err)
			}
			if diffs := Diff(f.Expect, got); len(diffs) > 0 {
				t.Errorf("fixture %s with poisoned chunks:\n%s", f.Name, FormatDiff(diffs))
			}
		})
	}
}
