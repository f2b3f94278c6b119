package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"weak"

	"orderopt/internal/exec"
	"orderopt/internal/plan"
	"orderopt/internal/planner"
	"orderopt/internal/tpcr"
)

// hitServer is a server over tpcr-small whose statement cache holds
// cacheSize statements, with the builds of what /execute keeps on a
// statement counted per slot.
func hitServer(cacheSize int) (*Server, *planner.Planner, *[2]atomic.Int64) {
	cfg := planner.DefaultConfig(tpcr.Schema())
	cfg.PreparedCacheSize = cacheSize
	pl := planner.New(cfg)
	s := New(Config{Planner: pl, Datasets: exec.TPCRLazyRegistry()})
	var builds [2]atomic.Int64
	s.built = func(slot planner.MemoSlot) { builds[slot].Add(1) }
	return s, pl, &builds
}

// kept returns the plan block and shape the statement sql keeps with
// its plan, failing the test if it has none.
func kept(t *testing.T, pl *planner.Planner, sql string) (*planBlock, *exec.Shape) {
	t.Helper()
	pd, err := pl.PlanContext(context.Background(), sql)
	if err != nil || pd.Source != planner.SourceCacheHit {
		t.Fatalf("%s: %v, source %v; want a stored-plan hit", sql, err, pd.Source)
	}
	none := func() (any, error) { return nil, errors.New("not kept") }
	b, err := pd.Memo(planner.MemoBlock, none)
	if err != nil {
		t.Fatalf("%s: no plan block on the statement", sql)
	}
	sh, err := pd.Memo(planner.MemoShape, none)
	if err != nil {
		t.Fatalf("%s: no shape on the statement", sql)
	}
	return b.(*planBlock), sh.(*exec.Shape)
}

// TestExecuteHitReusesBlockAndShape: later /executes of a statement
// compile from the shape and copy the plan block the first /execute
// built on the statement, each built once; the body is the one
// AppendExecuteResponse writes for the fully populated response,
// buffered and streamed alike.
func TestExecuteHitReusesBlockAndShape(t *testing.T) {
	s, pl, builds := hitServer(0)
	sql := "select * from customer, nation, region " +
		"where n_regionkey = r_regionkey and c_nationkey = n_nationkey order by n_name"

	if _, err := pl.PlanContext(context.Background(), sql); err != nil { // /plan builds neither
		t.Fatal(err)
	}
	if b, sh := builds[planner.MemoBlock].Load(), builds[planner.MemoShape].Load(); b != 0 || sh != 0 {
		t.Fatalf("planning built %d blocks and %d shapes, want none", b, sh)
	}
	var first *planBlock
	var firstShape *exec.Shape
	for i := range 3 {
		for _, stream := range []bool{false, true} {
			rec := serve(t, s, "/execute", ExecuteRequest{SQL: sql, Dataset: "tpcr-small", Stream: stream})
			b, sh := kept(t, pl, sql)
			if first == nil {
				first, firstShape = b, sh
			}
			if b != first || sh != firstShape {
				t.Errorf("request %d (stream %v) keeps another block or shape than the first", i, stream)
			}
			if stream {
				var h StreamHeader
				line, _, _ := bytes.Cut(rec.Body.Bytes(), []byte("\n"))
				want := decodeAppend(t, line, &h, AppendStreamHeader)
				if !bytes.Equal(append(line, '\n'), want) {
					t.Errorf("request %d: header %q, the writer's for its value %q", i, line, want)
				}
				continue
			}
			var resp ExecuteResponse
			if want := decodeAppend(t, rec.Body.Bytes(), &resp, AppendExecuteResponse); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("request %d: body %q, the writer's for its value %q", i, rec.Body, want)
			}
			if i > 0 && resp.Source != "cachehit" {
				t.Errorf("request %d: source %q, want cachehit", i, resp.Source)
			}
		}
	}
	if b, sh := builds[planner.MemoBlock].Load(), builds[planner.MemoShape].Load(); b != 1 || sh != 1 {
		t.Errorf("six requests over one plan built %d blocks and %d shapes, want one each", b, sh)
	}
}

// decodeAppend decodes wire into v and returns what appendFn writes for
// the decoded value.
func decodeAppend[T any](t *testing.T, wire []byte, v *T, appendFn func([]byte, *T) ([]byte, error)) []byte {
	t.Helper()
	if err := json.Unmarshal(wire, v); err != nil {
		t.Fatal(err)
	}
	b, err := appendFn(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEvictedEntryTakesBlockAndShape: with a one-statement cache, an
// evicted statement's plan, block and shape go with it — nothing else
// keeps them — and the statement's next /execute plans cold and builds
// them again.
func TestEvictedEntryTakesBlockAndShape(t *testing.T) {
	s, pl, builds := hitServer(1)
	a := "select * from orders, customer where o_custkey = c_custkey order by o_orderkey limit 10"
	other := "select * from nation, region where n_regionkey = r_regionkey"
	serve(t, s, "/execute", ExecuteRequest{SQL: a, Dataset: "tpcr-small"})
	wb, ws, wp := func() (weak.Pointer[planBlock], weak.Pointer[exec.Shape], weak.Pointer[plan.Node]) {
		b, sh := kept(t, pl, a)
		pd, err := pl.PlanContext(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		return weak.Make(b), weak.Make(sh), weak.Make(pd.Best)
	}()
	serve(t, s, "/execute", ExecuteRequest{SQL: other, Dataset: "tpcr-small"}) // evicts a
	runtime.GC()
	if wb.Value() != nil || ws.Value() != nil || wp.Value() != nil {
		t.Errorf("an evicted statement's block (%v), shape (%v) or plan (%v) is still reachable",
			wb.Value() != nil, ws.Value() != nil, wp.Value() != nil)
	}
	var resp ExecuteResponse
	rec := serve(t, s, "/execute", ExecuteRequest{SQL: a, Dataset: "tpcr-small"})
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Source != "cold" {
		t.Errorf("an evicted statement's next /execute: source %q, want cold", resp.Source)
	}
	if b, sh := builds[planner.MemoBlock].Load(), builds[planner.MemoShape].Load(); b != 3 || sh != 3 {
		t.Errorf("three plans through a one-statement cache built %d blocks and %d shapes, want three each", b, sh)
	}
}
