// Package conformance is the declarative golden-corpus harness of the
// execution tier. Each fixture is a data file declaring one query (SQL)
// over one dataset; the runner plans and executes it across the full
// configuration matrix — order-reasoning idiom × degree of parallelism
// × operator toggles — and asserts that every
// cell produces the identical result multiset, that claimed output
// orders physically hold, and that the canonical cells' plan trees
// match their checked-in goldens.
//
// The corpus is the executable specification of the executor's
// semantics: any operator change that alters results anywhere in the
// matrix fails loudly, and any plan change surfaces as a golden diff
// that `go test ./internal/conformance -update` (make
// conformance-update) re-records for review.
//
// docs/testing.md documents the fixture format and workflow.
package conformance

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// expectSeparator divides the hand-written fixture header from the
// machine-maintained expectation block.
const expectSeparator = "--- expect (regenerate with `make conformance-update`) ---"

// Fixture is one conformance scenario: the declared query plus the
// recorded expectations the matrix run is held to.
type Fixture struct {
	// Name is the fixture's file basename (without extension).
	Name string
	// Desc is a one-line description of what the scenario covers.
	Desc string
	// Dataset names the data the query runs over: a TPC-R registry name
	// ("tpcr-small", "tpcr-mid", "tpcr-large") or a generated schema
	// "gen:<relations>x<rowsPerTable>:<seed>" with tables r0..r(n-1)
	// and columns c0..c4.
	Dataset string
	// SQL is the query text, bound against the dataset's catalog.
	SQL string

	// Expect is the recorded expectation block (regenerated by -update).
	Expect Expect

	path string
}

// Expect is the machine-maintained half of a fixture.
type Expect struct {
	// Rows is the result cardinality every matrix cell must produce.
	Rows int64
	// Checksum is the order-insensitive multiset checksum every cell's
	// result must hash to.
	Checksum int64
	// OrderSatisfied records the DFSM framework's verdict on whether
	// the chosen dfsm plan's root state contains the query's ORDER BY
	// (nil when the query has no ORDER BY).
	OrderSatisfied *bool
	// Plans maps idiom name → golden plan tree for the canonical cells
	// (serial, all operators enabled).
	Plans map[string]string
}

// Load reads every *.fixture file in dir, sorted by name.
func Load(dir string) ([]*Fixture, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.fixture"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("conformance: no fixtures in %s", dir)
	}
	out := make([]*Fixture, 0, len(paths))
	for _, p := range paths {
		f, err := ParseFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// ParseFile reads one fixture file.
func ParseFile(path string) (*Fixture, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	f.Name = strings.TrimSuffix(filepath.Base(path), ".fixture")
	f.path = path
	return f, nil
}

// Parse decodes the fixture format: "key: value" header lines (sql
// values may continue on indented lines), then the expect separator,
// then the expectation block with "plan <idiom>:" trees as indented
// line groups. Lines starting with # (outside plan trees) are comments.
func Parse(text string) (*Fixture, error) {
	f := &Fixture{Expect: Expect{Plans: map[string]string{}}}
	lines := strings.Split(text, "\n")
	i := 0
	// Header.
	for ; i < len(lines); i++ {
		line := lines[i]
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		if t == expectSeparator || strings.HasPrefix(t, "--- expect") {
			i++
			break
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("conformance: bad header line %q", line)
		}
		val = strings.TrimSpace(val)
		switch strings.TrimSpace(key) {
		case "desc":
			f.Desc = val
		case "dataset":
			f.Dataset = val
		case "sql":
			// Continuation: subsequent indented lines extend the SQL.
			sql := val
			for i+1 < len(lines) && strings.HasPrefix(lines[i+1], "  ") && strings.TrimSpace(lines[i+1]) != "" {
				i++
				sql += " " + strings.TrimSpace(lines[i])
			}
			f.SQL = sql
		default:
			return nil, fmt.Errorf("conformance: unknown header key %q", strings.TrimSpace(key))
		}
	}
	// Expect block.
	for ; i < len(lines); i++ {
		line := lines[i]
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("conformance: bad expect line %q", line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch {
		case key == "rows":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("conformance: bad rows %q", val)
			}
			f.Expect.Rows = n
		case key == "checksum":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("conformance: bad checksum %q", val)
			}
			f.Expect.Checksum = n
		case key == "order-satisfied":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return nil, fmt.Errorf("conformance: bad order-satisfied %q", val)
			}
			f.Expect.OrderSatisfied = &b
		case strings.HasPrefix(key, "plan "):
			idiom := strings.TrimSpace(strings.TrimPrefix(key, "plan "))
			var tree strings.Builder
			for i+1 < len(lines) && (strings.HasPrefix(lines[i+1], "  ") || strings.TrimSpace(lines[i+1]) == "") {
				i++
				if strings.TrimSpace(lines[i]) == "" {
					// Blank line ends the tree (trailing blanks between
					// plan blocks are layout, not content).
					break
				}
				tree.WriteString(strings.TrimPrefix(lines[i], "  "))
				tree.WriteByte('\n')
			}
			f.Expect.Plans[idiom] = tree.String()
		default:
			return nil, fmt.Errorf("conformance: unknown expect key %q", key)
		}
	}
	if f.Dataset == "" {
		return nil, fmt.Errorf("conformance: fixture missing dataset")
	}
	if f.SQL == "" {
		return nil, fmt.Errorf("conformance: fixture missing sql")
	}
	return f, nil
}

// Format renders the fixture back to its file form, expectation block
// included.
func (f *Fixture) Format() string {
	var b strings.Builder
	if f.Desc != "" {
		fmt.Fprintf(&b, "desc: %s\n", f.Desc)
	}
	fmt.Fprintf(&b, "dataset: %s\n", f.Dataset)
	fmt.Fprintf(&b, "sql: %s\n", f.SQL)
	fmt.Fprintf(&b, "\n%s\n", expectSeparator)
	fmt.Fprintf(&b, "rows: %d\n", f.Expect.Rows)
	fmt.Fprintf(&b, "checksum: %d\n", f.Expect.Checksum)
	if f.Expect.OrderSatisfied != nil {
		fmt.Fprintf(&b, "order-satisfied: %v\n", *f.Expect.OrderSatisfied)
	}
	idioms := make([]string, 0, len(f.Expect.Plans))
	for k := range f.Expect.Plans {
		idioms = append(idioms, k)
	}
	sort.Strings(idioms)
	for _, idiom := range idioms {
		fmt.Fprintf(&b, "\nplan %s:\n", idiom)
		for _, line := range strings.Split(strings.TrimRight(f.Expect.Plans[idiom], "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}

// Save rewrites the fixture file with the current expectation block.
func (f *Fixture) Save() error {
	if f.path == "" {
		return fmt.Errorf("conformance: fixture %s has no backing file", f.Name)
	}
	return os.WriteFile(f.path, []byte(f.Format()), 0o644)
}
