// Package catalog provides the schema and statistics substrate the plan
// generator optimizes against: tables with column statistics, candidate
// keys, and indexes (whose sort orders are produced interesting orders in
// the sense of paper §5.2).
package catalog

import (
	"fmt"
)

// Type is a column type. The executor only needs ordered comparison, so
// a small set suffices.
type Type uint8

const (
	// Int is a 64-bit integer column.
	Int Type = iota
	// Float is a 64-bit float column.
	Float
	// String is a variable-length string column.
	String
	// Date is a day-granularity date column (stored as days since epoch).
	Date
)

func (t Type) String() string {
	switch t {
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	case Date:
		return "date"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Column describes one table column with its statistics.
type Column struct {
	Name string
	Type Type
	// Distinct is the estimated number of distinct values (≥ 1). Used
	// for equality selectivities 1/Distinct.
	Distinct int64
}

// Index describes a secondary or clustered index. Scanning it produces
// the ordering of its column sequence.
type Index struct {
	Name      string
	Columns   []string
	Unique    bool
	Clustered bool
}

// Table describes a base table.
type Table struct {
	Name    string
	Columns []Column
	Rows    int64
	// Keys lists candidate keys; each key column set functionally
	// determines every other column.
	Keys    [][]string
	Indexes []Index

	byName map[string]int
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if t.byName == nil {
		t.byName = make(map[string]int, len(t.Columns))
		for i, c := range t.Columns {
			t.byName[c.Name] = i
		}
	}
	if i, ok := t.byName[name]; ok {
		return i
	}
	return -1
}

// validate checks internal consistency.
func (t *Table) validate() error {
	if t.Name == "" {
		return fmt.Errorf("catalog: table without name")
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("catalog: table %s has no columns", t.Name)
	}
	if t.Rows < 0 {
		return fmt.Errorf("catalog: table %s has negative row count", t.Name)
	}
	seen := make(map[string]bool, len(t.Columns))
	for i := range t.Columns {
		c := &t.Columns[i]
		if c.Name == "" {
			return fmt.Errorf("catalog: table %s has an unnamed column", t.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("catalog: table %s has duplicate column %s", t.Name, c.Name)
		}
		seen[c.Name] = true
		if c.Distinct < 1 {
			c.Distinct = 1
		}
		if t.Rows > 0 && c.Distinct > t.Rows {
			c.Distinct = t.Rows
		}
	}
	for _, key := range t.Keys {
		for _, col := range key {
			if t.ColumnIndex(col) < 0 {
				return fmt.Errorf("catalog: table %s key references unknown column %s", t.Name, col)
			}
		}
	}
	for _, ix := range t.Indexes {
		if len(ix.Columns) == 0 {
			return fmt.Errorf("catalog: table %s index %s has no columns", t.Name, ix.Name)
		}
		for _, col := range ix.Columns {
			if t.ColumnIndex(col) < 0 {
				return fmt.Errorf("catalog: table %s index %s references unknown column %s",
					t.Name, ix.Name, col)
			}
		}
	}
	return nil
}

// Catalog is a set of tables.
type Catalog struct {
	tables map[string]*Table
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Add validates and registers a table. Adding a duplicate name fails.
func (c *Catalog) Add(t *Table) error {
	if err := t.validate(); err != nil {
		return err
	}
	if _, ok := c.tables[t.Name]; ok {
		return fmt.Errorf("catalog: duplicate table %s", t.Name)
	}
	c.tables[t.Name] = t
	return nil
}

// MustAdd is Add that panics on error (for static schema definitions).
func (c *Catalog) MustAdd(t *Table) {
	if err := c.Add(t); err != nil {
		panic(err)
	}
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*Table, bool) {
	t, ok := c.tables[name]
	return t, ok
}
