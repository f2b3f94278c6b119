package experiments

import (
	"testing"
	"time"
)

// TestAbort runs a scaled-down saturation/abort experiment and checks
// the isolation story end to end: in the faulted phase every victim
// request must end as a prompt typed 504 (the injected hang released
// by the deadline, not a stuck connection or a mystery error), the
// healthy planning population must keep serving without errors, and
// its throughput must not collapse relative to the fault-free phase.
func TestAbort(t *testing.T) {
	spec := AbortSpec{
		Workers:   4,
		Victims:   2,
		Duration:  400 * time.Millisecond,
		TimeoutMs: 25,
	}
	rows, err := Abort(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 phases", len(rows))
	}
	var healthy, faulted AbortRow
	for _, r := range rows {
		if r.Faulted {
			faulted = r
		} else {
			healthy = r
		}
		if r.PlanErrors != 0 {
			t.Errorf("%s: %d healthy planning errors", r.Phase, r.PlanErrors)
		}
		if r.PlanQPS <= 0 {
			t.Errorf("%s: no healthy planning throughput: %+v", r.Phase, r)
		}
		if r.VictimRequests <= 0 {
			t.Errorf("%s: victims issued no requests", r.Phase)
		}
	}
	if faulted.VictimTimeouts == 0 {
		t.Errorf("faulted phase: no victim 504s (%+v)", faulted)
	}
	if faulted.VictimOK != 0 {
		t.Errorf("faulted phase: %d victims completed despite the injected hang", faulted.VictimOK)
	}
	if faulted.VictimOther != 0 {
		t.Errorf("faulted phase: %d victims failed with something other than the deadline", faulted.VictimOther)
	}
	// Victim latency must sit near the deadline: hangs are released
	// promptly, not at some multiple of the timeout.
	if mean, lim := faulted.VictimMeanMs, float64(spec.TimeoutMs)+100; mean > lim {
		t.Errorf("faulted phase: victim mean latency %.1fms way past the %dms deadline", mean, spec.TimeoutMs)
	}
	// The isolation bar, asserted loosely (CI noise): hung victims must
	// not collapse healthy planning throughput.
	if faulted.PlanQPS < 0.2*healthy.PlanQPS {
		t.Errorf("healthy planning collapsed under faults: %.0f qps vs %.0f fault-free",
			faulted.PlanQPS, healthy.PlanQPS)
	}
	if s := FormatAbort(rows); s == "" {
		t.Error("empty table")
	}
}
