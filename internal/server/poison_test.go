package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"testing"

	"orderopt/internal/exec"
	"orderopt/internal/optimizer"
	"orderopt/internal/plan"
	"orderopt/internal/planner"
	"orderopt/internal/tpcr"
)

// TestPoisonedChunks serves Q8, the order-flow statement (buffered and
// streamed) and the top-k statement with the chunk pools poisoning
// every chunk they get back, and requires the rows of the unpoisoned
// run: no row a response carries is read after its pipeline recycled
// the chunk it was carved from. Each poisoned request is served twice,
// so the second one carves from chunks the first one handed back. Each
// is served without and with analyze: the stats wrappers' bursts, which
// only analyze compiles, are what the join rings' burst slack is for.
func TestPoisonedChunks(t *testing.T) {
	cfg := planner.DefaultConfig(tpcr.Schema())
	cfg.Optimizer = optimizer.DefaultConfig(optimizer.ModeDFSM)
	cfg.Optimizer.MaxDOP = 1
	s := New(Config{Planner: planner.New(cfg), Datasets: exec.TPCRLazyRegistry(), Workers: 1})
	reqs := map[string]ExecuteRequest{
		"q8":                 {SQL: tpcr.Query8SQL, Dataset: "tpcr-mid"},
		"orderflow":          {SQL: benchOrderflowSQL, Dataset: "tpcr-large", MaxRows: ExecuteRowCap},
		"orderflow streamed": {SQL: benchOrderflowSQL, Dataset: "tpcr-large", Stream: true},
		"topk":               {SQL: benchTopKSQL, Dataset: "tpcr-large"},
	}
	for name, req := range maps.Clone(reqs) {
		req.Analyze = true
		reqs[name+" analyzed"] = req
	}
	// rows is what a response says of the result: a buffered body's row
	// count and rows, a stream's rows frames.
	rows := func(name string, req ExecuteRequest) []byte {
		body := serve(t, s, "/execute", req).Body.Bytes()
		if req.Stream {
			lines := bytes.SplitAfter(body, []byte("\n"))
			return bytes.Join(lines[1:len(lines)-2], nil) // the header, the trailer and the empty tail
		}
		var resp ExecuteResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := json.Marshal([]any{resp.RowCount, resp.Rows})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	clean := map[string][]byte{}
	for name, req := range reqs {
		clean[name] = rows(name, req)
	}
	exec.PoisonRecycledChunks.Store(true)
	defer exec.PoisonRecycledChunks.Store(false)
	for name, req := range reqs {
		for i := 0; i < 2; i++ {
			if got := rows(name, req); !slices.Equal(got, clean[name]) {
				t.Errorf("%s: the rows served with poisoned chunks differ from the clean run's", name)
			}
		}
	}
}

// TestStreamRootsMatchRowsFrames: whatever its root, a stream's body
// between header and trailer is byte for byte AppendRowsFrame over the
// executor's own rows, cut every chunkRows rows, with the chunk pools
// poisoning every chunk they get back. The roots: a bare join spine,
// which hands its rows on as pieces; the same statement under analyze,
// whose timed root hands whole rows; a Sort; and a Limit. Only the bare
// spine's rows leave as pieces.
func TestStreamRootsMatchRowsFrames(t *testing.T) {
	cfg := planner.DefaultConfig(tpcr.Schema())
	cfg.Optimizer = optimizer.DefaultConfig(optimizer.ModeDFSM)
	cfg.Optimizer.MaxDOP = 1
	pl := planner.New(cfg)
	s := New(Config{Planner: pl, Datasets: scaledRegistry(), Workers: 1})
	ds, unpin, err := scaledRegistry().Acquire("tpcr-scaled")
	if err != nil {
		t.Fatal(err)
	}
	defer unpin()
	for _, c := range []struct {
		name, sql string
		analyze   bool
		root      plan.Op
	}{
		{"spine", benchOrderflowSQL, false, plan.MergeJoin},
		{"spine analyzed", benchOrderflowSQL, true, plan.MergeJoin},
		{"sort", sortSQL, false, plan.Sort},
		{"limit", benchOrderflowSQL + " limit 3000", false, plan.Limit},
	} {
		pd, err := pl.PlanContext(context.Background(), c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if pd.Best.Op != c.root {
			t.Fatalf("%s: the plan's root is a %v, not a %v", c.name, pd.Best.Op, c.root)
		}
		r := ds.Runner(pd.Origin.Analysis())
		r.DisableTiming = !c.analyze // as the server compiles it
		pipe, err := r.Compile(pd.Best)
		if err != nil {
			t.Fatal(err)
		}
		if bare := fmt.Sprintf("%T", pipe.Root) == "*exec.spineIter"; bare != (c.name == "spine") {
			t.Fatalf("%s: the root is a %T", c.name, pipe.Root)
		}
		want, err := pipe.ExecuteContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		exec.PoisonRecycledChunks.Store(true)
		for _, chunk := range []int{1, 7, 256, exec.MaxStreamChunk} {
			var frames []byte
			for lo := 0; lo < len(want); lo += chunk {
				frames = AppendRowsFrame(frames, want[lo:min(lo+chunk, len(want))])
			}
			req := ExecuteRequest{SQL: c.sql, Dataset: "tpcr-scaled", Stream: true, ChunkRows: chunk, Analyze: c.analyze}
			_, rest, _ := bytes.Cut(serve(t, s, "/execute", req).Body.Bytes(), []byte("\n"))
			trailer := rest[bytes.LastIndexByte(rest[:len(rest)-1], '\n')+1:]
			if !bytes.HasPrefix(trailer, []byte(`{"frame":"trailer","rowCount":`)) || bytes.Contains(trailer, []byte(`"error"`)) {
				t.Fatalf("%s, chunk %d: the stream ends %.200q", c.name, chunk, trailer)
			}
			if got := rest[:len(rest)-len(trailer)]; !bytes.Equal(got, frames) {
				t.Errorf("%s, chunk %d: %d bytes of rows frames, want the %d bytes AppendRowsFrame writes over %d rows",
					c.name, chunk, len(got), len(frames), len(want))
			}
		}
		exec.PoisonRecycledChunks.Store(false)
	}
}
