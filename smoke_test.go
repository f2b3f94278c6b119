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
	help, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("planserverd -h: %v\n%s", err, help)
	}
	doc, err := os.ReadFile("docs/api.md")
	if err != nil {
		t.Fatal(err)
	}
	got := submatches(`(?m)^  -([a-z-]+)`, help)
	want := submatches("(?m)^\\| `-([a-z-]+)` ", doc)
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

// TestExperimentsFlagSurface pins cmd/experiments the way
// TestPlanserverdFlagSurface pins the daemon: the flag names
// `experiments -h` prints must equal the flag table in
// docs/benchmarks.md, the per-table flags the nine shared ones replaced
// must be rejected, and every table -h lists runs once at its smallest
// size, so no registry entry can rot.
func TestExperimentsFlagSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the experiments build in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/experiments").CombinedOutput(); err != nil {
		t.Fatalf("building experiments: %v\n%s", err, out)
	}
	help, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("experiments -h: %v\n%s", err, help)
	}
	doc, err := os.ReadFile("docs/benchmarks.md")
	if err != nil {
		t.Fatal(err)
	}
	got := submatches(`(?m)^  -([a-z-]+)`, help)
	want := submatches("(?m)^\\| `-([a-z-]+)` ", doc)
	if len(got) != 9 || !slices.Equal(got, want) {
		t.Errorf("experiments -h flags and the docs/benchmarks.md flag table differ (want 9):\n  -h:   %v\n  docs: %v", got, want)
	}

	for _, gone := range []string{
		"tested-selections", "enum-shapes", "enum-sizes", "enum-seeds",
		"large-shapes", "large-sizes", "large-seeds", "large-compare-max",
		"exec-datasets", "exec-runs", "exec-queries", "exec-relations", "exec-rows",
		"topk-ks", "workers", "spill-datasets", "spill-runs", "spill-bytes",
		"abort-duration", "abort-victims",
	} {
		out, err := exec.Command(bin, "-"+gone+"=1", "-h").CombinedOutput()
		if err == nil || !strings.Contains(string(out), "flag provided but not defined: -"+gone) {
			t.Errorf("experiments -%s was not rejected (err %v):\n%s", gone, err, out)
		}
	}
	if out, err := exec.Command(bin, "-table", "nope").CombinedOutput(); err == nil || !strings.Contains(string(out), "prep, q8") {
		t.Errorf("unknown table not rejected with the table list (err %v):\n%s", err, out)
	}

	smallest := map[string][]string{
		"prep":  nil,
		"q8":    nil,
		"fig13": {"-sizes", "4", "-extras", "0", "-seeds", "1"},
		"fig14": {"-sizes", "4", "-extras", "0", "-seeds", "1", "-enumerator", "naive"},
		"enum":  {"-sizes", "4"},
		"large": {"-sizes", "8", "-seeds", "1", "-shapes", "chain,clique"},
		"exec":  {"-runs", "1", "-datasets", "tpcr-small"},
		"topk":  {"-runs", "1", "-datasets", "tpcr-small"},
		"spill": {"-runs", "1", "-datasets", "tpcr-mid"},
		"abort": {"-duration", "200ms"},
	}
	tables := submatches(`(?m)^  ([a-z0-9]+) `, help)
	if len(tables) != len(smallest)+1 { // + all
		t.Errorf("experiments -h lists tables %v, the smoke runs cover %d", tables, len(smallest))
	}
	for _, name := range tables {
		if name == "all" {
			continue // prep, q8, fig13, fig14 at default sizes: covered above, slow
		}
		args, ok := smallest[name]
		if !ok {
			t.Errorf("table %s has no smoke invocation", name)
			continue
		}
		out, err := exec.Command(bin, append([]string{"-table", name}, args...)...).CombinedOutput()
		if err != nil || !strings.HasPrefix(string(out), "=== ") {
			t.Errorf("experiments -table %s %v: %v\n%s", name, args, err, out)
		}
	}
}

// submatches returns the sorted first submatches of re in text.
func submatches(re string, text []byte) []string {
	var out []string
	for _, m := range regexp.MustCompile(re).FindAllSubmatch(text, -1) {
		out = append(out, string(m[1]))
	}
	slices.Sort(out)
	return out
}
