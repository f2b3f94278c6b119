// Close-without-exhaust: a client that stops reading (or a serving
// layer that hits its row budget) closes the pipeline while operators
// are mid-stream. Every opened operator — including the morsel workers
// behind an exchange — must still close exactly once. The test lives in
// an external package because the leak tracker (faultinject) imports
// exec.
package exec_test

import (
	"testing"

	"orderopt/internal/exec"
	"orderopt/internal/faultinject"
	"orderopt/internal/optimizer"
	"orderopt/internal/plan"
	"orderopt/internal/query"
	"orderopt/internal/tpcr"
)

func TestLimitCloseWithoutExhaustLeaksNothing(t *testing.T) {
	reg := exec.TPCRLazyRegistry()
	ds, ok := reg.Get("tpcr-mid")
	if !ok {
		t.Fatal("no tpcr-mid dataset")
	}
	for _, dop := range []int{1, 4} {
		_, g, err := tpcr.OrderStreamGraph()
		if err != nil {
			t.Fatal(err)
		}
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
		// A Limit on top mirrors the top-k pipelines this failure mode
		// hits in practice; the pull stops well before it fills.
		limited := &plan.Node{Op: plan.Limit, Limit: 50, Left: res.Best, Card: 50}

		tr := &faultinject.Tracker{}
		r := ds.Runner(a)
		r.MaxDOP = dop
		r.Hook = tr.Hook()
		p, err := r.Compile(limited)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Root.Open(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, ok, err := p.Root.Next(); err != nil || !ok {
				t.Fatalf("dop=%d: pull %d failed: ok=%v err=%v", dop, i, ok, err)
			}
		}
		if err := p.Root.Close(); err != nil {
			t.Fatalf("dop=%d: close: %v", dop, err)
		}
		if tr.Opened() == 0 {
			t.Fatalf("dop=%d: tracker saw no operators; the hook seam is broken", dop)
		}
		if leaked := tr.Leaked(); leaked != 0 {
			t.Fatalf("dop=%d: %d operators opened but never closed", dop, leaked)
		}
	}
}
