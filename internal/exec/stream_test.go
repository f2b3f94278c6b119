// StreamContext is the executor's half of the streaming /execute
// protocol: rows leave through a sink in pipeline order, chunk by
// chunk, while the pipeline is still running. These tests pin the three
// properties the serving layer builds on: the streamed sequence is
// exactly the buffered result, a sink failure (client gone) tears the
// pipeline down without leaks, and — the paper's payoff — a sort-free
// plan holds no more than a chunk in flight, so a blocked consumer
// blocks the producer instead of growing a buffer. A fourth follows
// from the third: a streamed join recycles its output rows, so a stream
// allocates the same whatever its length, and never recycles a row that
// is still held. The test lives in an external package because the leak
// tracker (faultinject) and the corpus (conformance) import exec.
package exec_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"orderopt/internal/conformance"
	"orderopt/internal/exec"
	"orderopt/internal/faultinject"
	"orderopt/internal/optimizer"
	"orderopt/internal/plan"
	"orderopt/internal/query"
	"orderopt/internal/tpcr"
)

// streamDataset is the shared test dataset: the TPC-R shape scaled up
// so streamed results run to thousands of rows (built once; the
// standard registry tiers are not needed here).
var streamDataset = sync.OnceValue(func() *exec.Dataset {
	return exec.NewDataset("tpcr-stream", "stream test fixture", tpcr.Schema(), tpcr.Generate(tpcr.DefaultGenSpec().Scale(20)))
})

// streamGraph builds orders ⋈ lineitem ordered by o_orderkey with no
// filters: sort-free under DFSM (both sides stream from clustered
// indexes into a merge join), and — because every lineitem joins — an
// output row count equal to the lineitem scan's, which is what lets
// the blocked-sink test bound every operator's progress by the sink's.
func streamGraph(t *testing.T) *query.Graph {
	t.Helper()
	c := tpcr.Schema()
	g := &query.Graph{}
	orders, _ := c.Table("orders")
	li, _ := c.Table("lineitem")
	ro := g.AddRelation("orders", orders)
	rl := g.AddRelation("lineitem", li)
	err := g.AddJoin(
		query.ColumnRef{Rel: ro, Col: orders.ColumnIndex("o_orderkey")},
		query.ColumnRef{Rel: rl, Col: li.ColumnIndex("l_orderkey")},
	)
	if err != nil {
		t.Fatal(err)
	}
	g.OrderBy = []query.ColumnRef{{Rel: ro, Col: orders.ColumnIndex("o_orderkey")}}
	return g
}

// streamPlan plans the streaming workload at the given DOP and returns
// a runner ready to compile it.
func streamPlan(t *testing.T, dop int) (*exec.Runner, *optimizer.Result) {
	t.Helper()
	ds := streamDataset()
	g := streamGraph(t)
	ds.ApplyStats(g)
	a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := optimizer.DefaultConfig(optimizer.ModeDFSM)
	cfg.MaxDOP = dop
	res, err := optimizer.Optimize(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := ds.Runner(a)
	r.MaxDOP = dop
	return r, res
}

// collectStream drains a pipeline through StreamContext, copying every
// chunk (the sink's slice is only valid during the call) and recording
// the largest chunk seen.
func collectStream(t *testing.T, p *exec.Pipeline, chunk int) (rows []exec.Row, maxChunk int) {
	t.Helper()
	err := p.StreamContext(context.Background(), chunk, func(batch []exec.Row) error {
		if len(batch) > maxChunk {
			maxChunk = len(batch)
		}
		for _, r := range batch {
			rows = append(rows, append(exec.Row(nil), r...))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	return rows, maxChunk
}

// collectRoot is the stream tests' reference, independent of the drain
// they test: a freshly compiled pipeline's Root drained by hand, whose
// root ring is unbounded and whose chunks are never recycled.
func collectRoot(t *testing.T, r *exec.Runner, n *plan.Node) (rows []exec.Row) {
	t.Helper()
	p, err := r.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Root.Close()
	if err := p.Root.Open(); err != nil {
		t.Fatal(err)
	}
	for {
		row, ok, err := p.Root.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return rows
		}
		rows = append(rows, row)
	}
}

// TestStreamMatchesExecute: across chunk sizes, serial and parallel,
// the streamed row sequence, and Execute's result, are exactly what the
// pipeline's root hands out — same rows, same order.
func TestStreamMatchesExecute(t *testing.T) {
	for _, dop := range []int{1, 4} {
		runner, res := streamPlan(t, dop)
		ref := collectRoot(t, runner, res.Best)
		if len(ref) == 0 {
			t.Fatal("reference result is empty; the workload shrank under the test")
		}
		rows, err := mustCompile(t, runner, res).Execute()
		if err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, rows, ref)
		for _, chunk := range []int{1, 7, 4096} {
			rows, maxChunk := collectStream(t, mustCompile(t, runner, res), chunk)
			if maxChunk > chunk {
				t.Errorf("dop=%d chunk=%d: sink saw a %d-row chunk", dop, chunk, maxChunk)
			}
			assertSameRows(t, rows, ref)
		}
		// chunk <= 0 selects the default, never unbounded chunks.
		rows, maxChunk := collectStream(t, mustCompile(t, runner, res), 0)
		if maxChunk > exec.DefaultStreamChunk {
			t.Errorf("dop=%d default chunk: sink saw a %d-row chunk", dop, maxChunk)
		}
		assertSameRows(t, rows, ref)
	}
}

func mustCompile(t *testing.T, r *exec.Runner, res *optimizer.Result) *exec.Pipeline {
	t.Helper()
	p, err := r.Compile(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func assertSameRows(t *testing.T, got, want []exec.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("streamed %d rows, buffered %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d: width %d, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d col %d: %d, want %d (order or content diverged)", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestStreamRowWindows: a join's output rows are recycled (its ring,
// see Runner.build) only once nothing can still hold them. Every
// corpus fixture's serial plans — each idiom's, with and without merge
// joins and ordered grouping, and each again under a Limit that outlasts
// several meter bursts — stream at chunk sizes 1, 7, the default and
// the maximum, with operator timing (and with it the bursts) on and off.
// Inside every sink call each row is checked against the untimed root's
// collected rows (collectRoot) at the same position: a row overwritten
// while still held reads as corrupt there.
func TestStreamRowWindows(t *testing.T) {
	fixtures, err := conformance.Load("../conformance/testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fixtures {
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			ds, q, err := conformance.Resolve(f)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, cell := range conformance.Matrix() {
				if cell.DOP != 1 {
					continue
				}
				a, err := query.Analyze(q.Graph, conformance.Idioms()[cell.Idiom].Analyze)
				if err != nil {
					t.Fatal(err)
				}
				res, err := optimizer.Optimize(a, cell.Config())
				if err != nil {
					t.Fatalf("cell %s: %v", cell, err)
				}
				if !seen[res.Best.String()] {
					seen[res.Best.String()] = true
					checkStreamWindows(t, cell.String(), ds, a, res.Best)
				}
			}
		})
	}
}

// checkStreamWindows streams best, and best under a Limit, as
// TestStreamRowWindows describes.
func checkStreamWindows(t *testing.T, name string, ds *exec.Dataset, a *query.Analysis, best *plan.Node) {
	t.Helper()
	r := ds.Runner(a)
	r.DisableTiming = true
	ref := collectRoot(t, r, best)
	k := min(16+3*64, len(ref)*2/3) // past the warm-up and three bursts, when there are rows for it
	limited := &plan.Node{Op: plan.Limit, Left: best, Limit: k, Card: float64(k)}
	for _, c := range []struct {
		n    *plan.Node
		want []exec.Row
	}{{best, ref}, {limited, ref[:k]}} {
		for _, timing := range []bool{false, true} {
			for _, chunk := range []int{1, 7, exec.DefaultStreamChunk, exec.MaxStreamChunk} {
				r := ds.Runner(a)
				r.DisableTiming = !timing
				p, err := r.Compile(c.n)
				if err != nil {
					t.Fatal(err)
				}
				pos := 0
				err = p.StreamContext(context.Background(), chunk, func(rows []exec.Row) error {
					for _, row := range rows {
						if pos >= len(c.want) || !slices.Equal(row, c.want[pos]) {
							return fmt.Errorf("row %d reads %v, not the buffered result's", pos, row)
						}
						pos++
					}
					return nil
				})
				if err == nil && pos != len(c.want) {
					err = fmt.Errorf("streamed %d rows, buffered %d", pos, len(c.want))
				}
				if err != nil {
					t.Fatalf("%s limit=%v timing=%v chunk=%d: %v\n%s", name, c.n == limited, timing, chunk, err, c.n)
				}
			}
		}
	}
}

// TestStreamAllocFlat: what a streamed sort-free pipeline allocates does
// not grow with its result. The served order-flow plan (customer ⋈
// orders ⋈ lineitem by o_orderkey, zero rows sorted) streams over two
// datasets, the second with 4× the rows of the first, and one run's
// allocation on each must agree within a fixed slack: every join output
// row lives in a ring bounded by the chunk, not in chunks that grow with
// the stream (which cost 80 bytes per result row here).
func TestStreamAllocFlat(t *testing.T) {
	const slack = 64 << 10
	a, best := servedPlan(t, orderflowSQL)
	var rows [2]int64
	var bytes [2]int64
	for i, ds := range []*exec.Dataset{
		streamDataset(),
		exec.NewDataset("tpcr-stream-4x", "stream test fixture, 4x", tpcr.Schema(), tpcr.Generate(tpcr.DefaultGenSpec().Scale(80))),
	} {
		run := func() (int64, int64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p, err := ds.Runner(a).Compile(best)
			if err != nil {
				t.Fatal(err)
			}
			var n int64
			if err := p.StreamContext(context.Background(), 0, func(b []exec.Row) error {
				n += int64(len(b))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if sorted := p.RowsSorted(); sorted != 0 {
				t.Fatalf("the order-flow plan sorted %d rows", sorted)
			}
			return n, int64(after.TotalAlloc - before.TotalAlloc)
		}
		run() // adopts (builds) the dataset's resident customer table
		rows[i], bytes[i] = run()
	}
	t.Logf("%d rows: %d bytes; %d rows: %d bytes", rows[0], bytes[0], rows[1], bytes[1])
	if rows[1] < 3*rows[0] {
		t.Fatalf("results of %d and %d rows: the 4x dataset no longer multiplies the result", rows[0], rows[1])
	}
	if d := bytes[1] - bytes[0]; d > slack || d < -slack {
		t.Errorf("streaming %d rows allocated %d bytes, %d rows %d bytes: the difference is over %d",
			rows[0], bytes[0], rows[1], bytes[1], slack)
	}
}

// TestStreamSinkErrorAborts: a sink failure (the client went away, the
// write blocked forever) must come back out of StreamContext, stop the
// producers — morsel workers included — close every opened operator,
// and release everything charged against the memory accountant.
func TestStreamSinkErrorAborts(t *testing.T) {
	boom := errors.New("client went away")
	for _, dop := range []int{1, 4} {
		runner, res := streamPlan(t, dop)
		tr := &faultinject.Tracker{}
		runner.Hook = tr.Hook()
		acct := exec.NewAccountant(0) // track only
		runner.Accountant = acct
		p := mustCompile(t, runner, res)

		calls := 0
		err := p.StreamContext(context.Background(), 8, func([]exec.Row) error {
			calls++
			if calls == 2 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("dop=%d: stream returned %v, want the sink's error", dop, err)
		}
		if calls != 2 {
			t.Errorf("dop=%d: sink called %d times after its error, want 2", dop, calls)
		}
		if tr.Opened() == 0 {
			t.Fatalf("dop=%d: tracker saw no operators; the hook seam is broken", dop)
		}
		if leaked := tr.Leaked(); leaked != 0 {
			t.Errorf("dop=%d: %d operators opened but never closed after a sink error", dop, leaked)
		}
		if used := acct.Used(); used != 0 {
			t.Errorf("dop=%d: %d bytes still charged after a sink error", dop, used)
		}
		runner.Hook, runner.Accountant = nil, nil
	}
}

// TestStreamCancelMidStream: cancelling the context between chunks
// surfaces ErrCanceled and drains the budget, exactly like a cancelled
// buffered execution.
func TestStreamCancelMidStream(t *testing.T) {
	runner, res := streamPlan(t, 1)
	acct := exec.NewAccountant(0)
	runner.Accountant = acct
	defer func() { runner.Accountant = nil }()
	p := mustCompile(t, runner, res)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	err := p.StreamContext(ctx, 8, func([]exec.Row) error {
		calls++
		if calls == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("stream after cancel returned %v, want ErrCanceled", err)
	}
	if used := acct.Used(); used != 0 {
		t.Errorf("%d bytes still charged after cancellation", used)
	}
}

// TestStreamBudget: a pipeline budget violation surfaces as
// ErrBudgetExceeded from StreamContext. The budget bounds what the
// pipeline materializes, so the plan must buffer somewhere — ordering
// by a non-key column forces a top sort over the join output.
func TestStreamBudget(t *testing.T) {
	ds := streamDataset()
	g := streamGraph(t)
	c := tpcr.Schema()
	orders, _ := c.Table("orders")
	g.OrderBy = []query.ColumnRef{{Rel: 0, Col: orders.ColumnIndex("o_orderdate")}}
	ds.ApplyStats(g)
	a, err := query.Analyze(g, query.AnalyzeOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimizer.Optimize(a, optimizer.DefaultConfig(optimizer.ModeDFSM))
	if err != nil {
		t.Fatal(err)
	}
	runner := ds.Runner(a)
	runner.Budget = exec.Budget{MaxBytes: 4 << 10}
	p := mustCompile(t, runner, res)
	streamErr := p.StreamContext(context.Background(), 8, func([]exec.Row) error { return nil })
	if !errors.Is(streamErr, exec.ErrBudgetExceeded) {
		t.Fatalf("stream under a tiny byte budget returned %v, want ErrBudgetExceeded", streamErr)
	}
}

// TestStreamBlockedSinkBuffersNothing is the streaming acceptance
// test: the sort-free order-stream plan at DOP 1 delivers its first
// chunk and then, while the sink is blocked, the pipeline must be
// blocked too — no operator may run ahead by more than a chunk plus
// the merge join's one-group lookahead. An order-oblivious plan could
// not pass this: its top sort materializes every row before the first
// chunk leaves, which is exactly what the operator counters would show.
func TestStreamBlockedSinkBuffersNothing(t *testing.T) {
	const chunk = 8
	runner, res := streamPlan(t, 1)
	p := mustCompile(t, runner, res)

	firstChunk := make(chan struct{})
	unblock := make(chan struct{})
	var once sync.Once
	var total int
	done := make(chan error, 1)
	go func() {
		done <- p.StreamContext(context.Background(), chunk, func(batch []exec.Row) error {
			total += len(batch)
			once.Do(func() {
				close(firstChunk)
				<-unblock
			})
			return nil
		})
	}()

	<-firstChunk
	// The sink is blocked inside its first call; give the pipeline
	// side time to run ahead if it (wrongly) could.
	time.Sleep(50 * time.Millisecond)
	// The sink goroutine is parked on unblock, so reading the counters
	// here is ordered after everything the pipeline did before calling
	// the sink — and nothing else runs.
	const lookahead = 64 // merge-join duplicate-group buffering slack
	for _, st := range p.Ops {
		if st.Rows > chunk+lookahead {
			t.Errorf("operator %s %s ran %d rows ahead while the sink was blocked (want <= %d)",
				st.Op, st.Detail, st.Rows, chunk+lookahead)
		}
	}
	close(unblock)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The plan really was sort-free and the blocked prefix really was
	// a small slice of a much larger result.
	if sorted := p.RowsSorted(); sorted != 0 {
		t.Fatalf("order-stream plan sorted %d rows; the no-buffering assertion is vacuous", sorted)
	}
	if total <= chunk+lookahead {
		t.Fatalf("full result is only %d rows; the no-buffering assertion is vacuous", total)
	}
}
