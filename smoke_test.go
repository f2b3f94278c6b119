package orderopt_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestExamplesAndCLIsRun builds and runs every example and CLI once so
// they cannot bit-rot. Skipped with -short (each invocation compiles a
// binary).
func TestExamplesAndCLIsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping example/CLI smoke runs in -short mode")
	}
	cases := []struct {
		name string
		args []string
		want string // substring expected in the output
	}{
		{"quickstart", []string{"run", "./examples/quickstart"}, "contains (a, b, c) = true"},
		{"simplequery", []string{"run", "./examples/simplequery"}, "DFSM: 6 states"},
		{"tpcr_q8", []string{"run", "./examples/tpcr_q8"}, "with pruning"},
		{"executor", []string{"run", "./examples/executor"}, "physically satisfied"},
		{"orderopt-running", []string{"run", "./cmd/orderopt", "-example", "running", "-pruning"}, "DFSM: 4 states"},
		{"orderopt-intro-dot", []string{"run", "./cmd/orderopt", "-example", "intro", "-dot"}, "digraph nfsm"},
		{"orderopt-simple", []string{"run", "./cmd/orderopt", "-example", "simple"}, "NFSM: 12 states"},
		{"experiments-prep", []string{"run", "./cmd/experiments", "-table", "prep"}, "NFSM size"},
		{"orderopt-sql", []string{"run", "./cmd/orderopt", "-sql",
			"select * from nation n1, region where n1.n_regionkey = r_regionkey order by r_regionkey"},
			"best plan"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command("go", tc.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%v failed: %v\n%s", tc.args, err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("output of %v missing %q:\n%s", tc.args, tc.want, out)
			}
		})
	}
}

// TestPlanserverdFlagSurface pins the daemon's option surface: the flag
// names `planserverd -h` prints must equal the flag table in
// docs/api.md, and the four evaluation-device flags that left the
// serving binary must be rejected. A new knob fails here instead of
// drifting past the docs.
func TestPlanserverdFlagSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the planserverd build in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "planserverd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/planserverd").CombinedOutput(); err != nil {
		t.Fatalf("building planserverd: %v\n%s", err, out)
	}
	names := func(re string, text []byte) []string {
		var out []string
		for _, m := range regexp.MustCompile(re).FindAllSubmatch(text, -1) {
			out = append(out, string(m[1]))
		}
		slices.Sort(out)
		return out
	}

	help, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("planserverd -h: %v\n%s", err, help)
	}
	doc, err := os.ReadFile("docs/api.md")
	if err != nil {
		t.Fatal(err)
	}
	got := names(`(?m)^  -([a-z-]+)`, help)
	want := names("(?m)^\\| `-([a-z-]+)` ", doc)
	if len(got) == 0 || !slices.Equal(got, want) {
		t.Errorf("planserverd -h flags and the docs/api.md flag table differ:\n  -h:   %v\n  docs: %v", got, want)
	}

	for _, gone := range []string{"mode", "enumerator", "strategy", "eager-datasets"} {
		// -h after the probed flag: were the flag ever defined again,
		// the run prints help and exits 0 instead of starting to serve.
		out, err := exec.Command(bin, "-"+gone+"=x", "-h").CombinedOutput()
		if err == nil || !strings.Contains(string(out), "flag provided but not defined: -"+gone) {
			t.Errorf("planserverd -%s was not rejected (err %v):\n%s", gone, err, out)
		}
	}
}
