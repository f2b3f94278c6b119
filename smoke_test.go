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

// TestPlanserverdFlagSurface pins the daemon's option surface: the flag
// names `planserverd -h` prints must equal the flag table in
// docs/api.md, every flag the package comment's usage block shows must
// be one of them, and there are ten. The four evaluation-device flags
// that left the serving binary, the three memory knobs that -mem-budget
// replaced and -plan-cache (plans are kept on prepared statements) must
// be rejected. A new knob fails here instead of drifting past the docs.
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
	if len(got) != 10 || !slices.Equal(got, want) {
		t.Errorf("planserverd -h flags and the docs/api.md flag table differ (want 10):\n  -h:   %v\n  docs: %v", got, want)
	}
	checkUsageFlags(t, "planserverd", got)

	for _, gone := range []string{"mode", "enumerator", "strategy", "eager-datasets",
		"registry-budget", "query-reserve", "query-rows-budget", "plan-cache"} {
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
// docs/benchmarks.md and cover the package comment's usage block, the
// per-table flags the seven shared ones replaced, the flags and tables
// of the deleted spill, abort, large and enum tables and the deleted
// million-row dataset tier must be rejected, and every
// table -h lists runs once at its smallest size, so no registry entry
// can rot.
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
	if len(got) != 7 || !slices.Equal(got, want) {
		t.Errorf("experiments -h flags and the docs/benchmarks.md flag table differ (want 7):\n  -h:   %v\n  docs: %v", got, want)
	}
	checkUsageFlags(t, "experiments", got)

	for _, gone := range []string{
		"tested-selections", "enum-shapes", "enum-sizes", "enum-seeds",
		"large-shapes", "large-sizes", "large-seeds", "large-compare-max",
		"exec-datasets", "exec-runs", "exec-queries", "exec-relations", "exec-rows",
		"topk-ks", "workers", "spill-datasets", "spill-runs", "spill-bytes",
		"abort-duration", "abort-victims", "shapes", "duration",
	} {
		out, err := exec.Command(bin, "-"+gone+"=1", "-h").CombinedOutput()
		if err == nil || !strings.Contains(string(out), "flag provided but not defined: -"+gone) {
			t.Errorf("experiments -%s was not rejected (err %v):\n%s", gone, err, out)
		}
	}
	for _, name := range []string{"nope", "spill", "abort", "large", "enum"} {
		if out, err := exec.Command(bin, "-table", name).CombinedOutput(); err == nil || !strings.Contains(string(out), "prep, q8") {
			t.Errorf("-table %s not rejected with the table list (err %v):\n%s", name, err, out)
		}
	}
	xl := "tpcr-" + "xl" // the deleted million-row tier
	if out, err := exec.Command(bin, "-table", "exec", "-datasets", xl, "-runs", "1").CombinedOutput(); err == nil ||
		!strings.Contains(string(out), xl) || !strings.Contains(string(out), "tpcr-small tpcr-mid tpcr-large") {
		t.Errorf("-datasets %s not rejected with the known datasets (err %v):\n%s", xl, err, out)
	}

	smallest := map[string][]string{
		"prep":  nil,
		"q8":    nil,
		"fig13": {"-sizes", "4", "-extras", "0", "-seeds", "1"},
		"fig14": {"-sizes", "4", "-extras", "0", "-seeds", "1", "-enumerator", "naive"},
		"exec":  {"-runs", "1", "-datasets", "tpcr-small"},
		"topk":  {"-runs", "1", "-datasets", "tpcr-small"},
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

// checkUsageFlags fails t unless every flag the usage block of
// cmd/<cmd>/main.go's package comment passes to cmd (its "//\t<cmd> ..."
// lines, up to a trailing # comment) is one of the flags -h printed.
func checkUsageFlags(t *testing.T, cmd string, printed []string) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("cmd", cmd, "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	var used []string
	for _, line := range regexp.MustCompile(`(?m)^//\t`+cmd+`\b(.*)$`).FindAllStringSubmatch(doc, -1) {
		args, _, _ := strings.Cut(line[1], "#")
		for _, m := range regexp.MustCompile(`(?:^|\s)-([a-z][a-z-]*)`).FindAllStringSubmatch(args, -1) {
			used = append(used, m[1])
		}
	}
	if len(used) == 0 {
		t.Fatalf("cmd/%s/main.go: no flags found in the package comment's usage block", cmd)
	}
	for _, f := range used {
		if !slices.Contains(printed, f) {
			t.Errorf("cmd/%s/main.go usage block shows -%s, which %s -h does not print", cmd, f, cmd)
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
