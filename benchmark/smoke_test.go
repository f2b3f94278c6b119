package main

import (
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func metricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload's traced run, and one end-to-end run,
// with the shortest measured phase the estimator accepts (30 blocks of
// 10 requests), and holds what they print against BENCHMARK.json: the
// same metric names and units, no failed request, every workload on the
// planner path it claims, the avoided sorts avoided, and a replay that
// accounts for the handler's time.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads (~45 s)")
	}
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	check := func(t *testing.T, got map[string]metric, want map[string]string) {
		t.Helper()
		var wantNames []string
		for name := range want {
			wantNames = append(wantNames, name)
		}
		sort.Strings(wantNames)
		if g, w := strings.Join(metricNames(got), " "), strings.Join(wantNames, " "); g != w {
			t.Fatalf("metric names differ from BENCHMARK.json\n got: %s\nwant: %s", g, w)
		}
		for name, m := range got {
			if !wellFormed.MatchString(name) {
				t.Errorf("metric name %q is not of the permitted form", name)
			}
			if m.Unit != want[name] {
				t.Errorf("%s has unit %q, BENCHMARK.json says %q", name, m.Unit, want[name])
			}
		}
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range man.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range man.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver has %d", len(man.Workloads), len(workloads))
	}

	t.Run("end_to_end/topk_hot", func(t *testing.T) {
		rec, err := run(options{workload: "topk_hot", seed: 5, seconds: 1})
		if err != nil {
			t.Fatal(err)
		}
		check(t, rec.Outcome.Metrics, endToEnd)
		if !rec.Outcome.Correct || rec.Outcome.Failed != 0 {
			t.Errorf("%d of %d requests failed", rec.Outcome.Failed, rec.Outcome.Attempted)
		}
		for name, m := range rec.Outcome.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s = %v; end-to-end metrics are never 0", name, m.Value)
			}
		}
	})

	rowsSorted := map[string]float64{"plan_novel": 0, "topk_hot": 0, "q8_repeat": 8000, "stream_orderflow": 0}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the driver", i, man.Workloads[i].Name, w.name)
		}
		t.Run("per_layer/"+w.name, func(t *testing.T) {
			rec, err := run(options{workload: w.name, seed: 5, seconds: 1, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			got := rec.Outcome.Metrics
			check(t, got, perLayer)
			if !rec.Outcome.Correct || rec.Outcome.Failed != 0 {
				t.Errorf("%d of %d requests failed", rec.Outcome.Failed, rec.Outcome.Attempted)
			}
			hit := 1.0
			if w.novel {
				hit = 0
			}
			for _, name := range []string{"planner.plan_cache_hit_ratio", "planner.prepared_hit_ratio"} {
				if got[name].Value != hit {
					t.Errorf("%s = %v, want %v", name, got[name].Value, hit)
				}
			}
			if got["exec.rows_sorted"].Value != rowsSorted[w.name] {
				t.Errorf("exec.rows_sorted = %v, want %v", got["exec.rows_sorted"].Value, rowsSorted[w.name])
			}
			if c := got["trace.coverage"].Value; c < 0.85 || c > 1.15 {
				t.Errorf("trace.coverage = %.3f: the replayed layers no longer account for the handler's time", c)
			}
			if len(rec.Spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			for i, d := range selfTimes(rec.Spans) {
				// A derived child is placed by duration, not by clock, so
				// rounding may leave its parent a hair short.
				if d < -50_000 {
					t.Errorf("span %d (%s) has self time %v", rec.Spans[i].ID, rec.Spans[i].Name, d)
					break
				}
			}
		})
	}
}

// selfTimes returns each span's duration minus its children's.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent != 0 {
			self[s.Parent-1] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// TestWrongReferenceFailsTheRun proves the verification pass decides
// the run: with the reference checksum off by one, set-up must fail.
func TestWrongReferenceFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("loads tpcr-large")
	}
	_, err := run(options{workload: "topk_hot", seed: 1, seconds: 1, refSkew: 1})
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("run with a skewed reference: err = %v; want a checksum mismatch", err)
	}
}
