package experiments

import (
	"strings"
	"testing"
)

func TestPrepQ8Shape(t *testing.T) {
	// The paper's §6.2 table corresponds to O_T = ∅ (the tested
	// selection orders are mentioned as an optional addition).
	rows, err := PrepQ8()
	if err != nil {
		t.Fatal(err)
	}
	unpruned, pruned := rows[0], rows[1]
	if unpruned.Pruning || !pruned.Pruning {
		t.Fatal("row order wrong")
	}
	// The paper's shape: pruning shrinks both machines and the tables.
	if pruned.NFSMSize >= unpruned.NFSMSize {
		t.Errorf("NFSM: pruned %d !< unpruned %d", pruned.NFSMSize, unpruned.NFSMSize)
	}
	if pruned.DFSMSize >= unpruned.DFSMSize {
		t.Errorf("DFSM: pruned %d !< unpruned %d", pruned.DFSMSize, unpruned.DFSMSize)
	}
	if pruned.Bytes >= unpruned.Bytes {
		t.Errorf("bytes: pruned %d !< unpruned %d", pruned.Bytes, unpruned.Bytes)
	}
	out := FormatPrep(rows)
	for _, want := range []string{"NFSM size", "DFSM size", "total time", "precomputed data"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatPrep missing %q", want)
		}
	}
}

func TestQ8Shape(t *testing.T) {
	rows, err := Q8(1)
	if err != nil {
		t.Fatal(err)
	}
	simmen, ours := rows[0], rows[1]
	if simmen.Mode != "simmen" || ours.Mode != "dfsm" {
		t.Fatalf("row modes: %s/%s", simmen.Mode, ours.Mode)
	}
	// The §7 shape: ours generates fewer plans and uses less memory.
	if ours.Plans > simmen.Plans {
		t.Errorf("plans: ours %d > simmen %d", ours.Plans, simmen.Plans)
	}
	if ours.MemBytes >= simmen.MemBytes {
		t.Errorf("memory: ours %d !< simmen %d", ours.MemBytes, simmen.MemBytes)
	}
	out := FormatQ8(rows)
	for _, want := range []string{"#Plans", "t/plan", "Memory"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatQ8 missing %q", want)
		}
	}
}

func TestSweepSmall(t *testing.T) {
	rows, err := Sweep(SweepSpec{Sizes: []int{4, 5}, Extras: []int{0}, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SimmenPlans <= 0 || r.OursPlans <= 0 {
			t.Errorf("n=%d: zero plans", r.N)
		}
		if r.OursPlans > r.SimmenPlans {
			t.Errorf("n=%d: ours generated more plans (%.0f > %.0f)", r.N, r.OursPlans, r.SimmenPlans)
		}
		if r.FactorPlans() < 1 {
			t.Errorf("n=%d: FactorPlans = %v", r.N, r.FactorPlans())
		}
		if r.OursMemKB >= r.SimmenMemKB {
			t.Errorf("n=%d: ours uses more memory", r.N)
		}
		if r.DFSMKB <= 0 {
			t.Errorf("n=%d: missing DFSM size", r.N)
		}
	}
	f13 := FormatFigure13(rows)
	if !strings.Contains(f13, "Simmen") || !strings.Contains(f13, "our algorithm") {
		t.Error("FormatFigure13 missing headers")
	}
	f14 := FormatFigure14(rows)
	if !strings.Contains(f14, "DFSM") {
		t.Error("FormatFigure14 missing DFSM column")
	}
}

func TestEdgeLabel(t *testing.T) {
	for extra, want := range map[int]string{0: "n-1", 1: "n", 2: "n+1", 3: "n+2"} {
		if got := edgeLabel(extra); got != want {
			t.Errorf("edgeLabel(%d) = %q, want %q", extra, got, want)
		}
	}
}
