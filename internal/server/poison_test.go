package server

import (
	"bytes"
	"encoding/json"
	"maps"
	"slices"
	"testing"

	"orderopt/internal/exec"
	"orderopt/internal/optimizer"
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
