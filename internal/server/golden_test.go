package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"orderopt/internal/exec"
	"orderopt/internal/optimizer"
	"orderopt/internal/planner"
	"orderopt/internal/tpcr"
)

var update = flag.Bool("update", false, "re-record testdata/served_operators.golden")

// TestServedOperatorsGolden pins the operators array /execute reports
// for the three benchmark statements, served the way the benchmark
// driver serves them (one worker, serial plans): Q8 on tpcr-mid, the
// order-flow statement on tpcr-large buffered and streamed, and the
// top-k statement on tpcr-large. Every field but timeNs is recorded, one
// JSON object per operator in plan preorder, so a change to what the
// executor counts, marks or adopts shows up line by line in the golden's
// diff. Each statement is served twice and the second response recorded:
// the first one builds the dataset's resident state. Each is served
// without and with analyze, which must report the same lines: timeNs 0
// on every operator without it, and above 0 under it on every operator
// that has a stats wrapper. Re-record an intentional change with
// -update and review the diff.
func TestServedOperatorsGolden(t *testing.T) {
	cfg := planner.DefaultConfig(tpcr.Schema())
	cfg.Optimizer = optimizer.DefaultConfig(optimizer.ModeDFSM)
	cfg.Optimizer.MaxDOP = 1
	s := New(Config{Planner: planner.New(cfg), Datasets: exec.TPCRLazyRegistry(), MaxTimeout: DefaultMaxTimeout, Workers: 1})
	var b strings.Builder
	for _, c := range []struct {
		name string
		req  ExecuteRequest
	}{
		{"q8", ExecuteRequest{SQL: tpcr.Query8SQL, Dataset: "tpcr-mid"}},
		{"orderflow", ExecuteRequest{SQL: benchOrderflowSQL, Dataset: "tpcr-large"}},
		{"orderflow-stream", ExecuteRequest{SQL: benchOrderflowSQL, Dataset: "tpcr-large", Stream: true}},
		{"topk", ExecuteRequest{SQL: benchTopKSQL, Dataset: "tpcr-large"}},
	} {
		var lines [2]string
		for i, analyze := range []bool{false, true} {
			req := c.req
			req.Analyze = analyze
			var ops []exec.OpStats
			for range 2 {
				ops = servedOperators(t, s, req)
			}
			var l strings.Builder
			for j, op := range ops {
				switch {
				case !analyze && op.TimeNs != 0, analyze && metered(ops, j) && op.TimeNs <= 0:
					t.Errorf("%s (analyze %v): %s %q reports timeNs %d", c.name, analyze, op.Op, op.Detail, op.TimeNs)
				}
				op.TimeNs = 0
				line, err := json.Marshal(op)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&l, "%s\n", line)
			}
			lines[i] = l.String()
		}
		if lines[1] != lines[0] {
			t.Errorf("%s: analyze changed the operators\n--- without\n%s--- with\n%s", c.name, lines[0], lines[1])
		}
		fmt.Fprintf(&b, "# %s on %s\n%s", c.name, c.req.Dataset, lines[0])
	}

	path := filepath.Join("testdata", "served_operators.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("served operators differ from %s (re-record with -update if intended)\n--- want\n%s--- got\n%s", path, want, got)
	}
}

// metered reports whether operator i of a serial plan's operators, in
// preorder, has a stats wrapper under analyze: a sort, a grouping, a
// Limit, or the top join of a spine — a join that is not the driving
// input (the first child) of a join just before it.
func metered(ops []exec.OpStats, i int) bool {
	isJoin := func(op string) bool { return strings.HasSuffix(op, "Join") }
	switch op := ops[i].Op; {
	case op == "Sort", op == "Limit", strings.HasPrefix(op, "Group"):
		return true
	case isJoin(op):
		return i == 0 || !isJoin(ops[i-1].Op)
	}
	return false
}

// servedOperators serves req through s in process and returns the
// operators of its response: the body's, or a stream's trailer's.
func servedOperators(t *testing.T, s *Server, req ExecuteRequest) []exec.OpStats {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/execute", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", req.SQL, w.Code, w.Body)
	}
	if !req.Stream {
		var resp ExecuteResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Operators
	}
	sc := bufio.NewScanner(w.Body)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var tr StreamTrailer
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			t.Fatal(err)
		}
		if tr.Frame == FrameTrailer {
			if tr.Error != "" {
				t.Fatalf("%s: stream failed: %s", req.SQL, tr.Error)
			}
			return tr.Operators
		}
	}
	t.Fatalf("%s: no trailer frame (%v)", req.SQL, sc.Err())
	return nil
}
