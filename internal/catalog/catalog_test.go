package catalog

import "testing"

func goodTable() *Table {
	return &Table{
		Name: "persons",
		Columns: []Column{
			{Name: "id", Type: Int, Distinct: 1000},
			{Name: "name", Type: String, Distinct: 900},
			{Name: "jobid", Type: Int, Distinct: 50},
		},
		Rows:    1000,
		Keys:    [][]string{{"id"}},
		Indexes: []Index{{Name: "persons_pk", Columns: []string{"id"}, Unique: true, Clustered: true}},
	}
}

func TestAddAndLookup(t *testing.T) {
	c := New()
	if err := c.Add(goodTable()); err != nil {
		t.Fatal(err)
	}
	tab, ok := c.Table("persons")
	if !ok {
		t.Fatal("table not found")
	}
	if tab.ColumnIndex("jobid") != 2 {
		t.Errorf("ColumnIndex(jobid) = %d", tab.ColumnIndex("jobid"))
	}
	if tab.ColumnIndex("nope") != -1 {
		t.Error("unknown column should be -1")
	}
	if tab.Columns[tab.ColumnIndex("name")].Type != String {
		t.Error("ColumnIndex(name) broken")
	}
	if _, ok := c.Table("ghost"); ok {
		t.Error("ghost table found")
	}
}

func TestDuplicateTable(t *testing.T) {
	c := New()
	if err := c.Add(goodTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(goodTable()); err == nil {
		t.Error("duplicate Add must fail")
	}
}

func TestValidation(t *testing.T) {
	cases := []struct {
		name string
		tab  *Table
	}{
		{"no name", &Table{Columns: []Column{{Name: "a"}}}},
		{"no columns", &Table{Name: "t"}},
		{"negative rows", &Table{Name: "t", Columns: []Column{{Name: "a"}}, Rows: -1}},
		{"unnamed column", &Table{Name: "t", Columns: []Column{{}}}},
		{"duplicate column", &Table{Name: "t", Columns: []Column{{Name: "a"}, {Name: "a"}}}},
		{"bad key", &Table{Name: "t", Columns: []Column{{Name: "a"}}, Keys: [][]string{{"z"}}}},
		{"empty index", &Table{Name: "t", Columns: []Column{{Name: "a"}},
			Indexes: []Index{{Name: "i"}}}},
		{"bad index column", &Table{Name: "t", Columns: []Column{{Name: "a"}},
			Indexes: []Index{{Name: "i", Columns: []string{"z"}}}}},
	}
	for _, tc := range cases {
		if err := New().Add(tc.tab); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestDistinctClamped(t *testing.T) {
	c := New()
	tab := &Table{
		Name:    "t",
		Columns: []Column{{Name: "a", Distinct: 0}, {Name: "b", Distinct: 99999}},
		Rows:    100,
	}
	if err := c.Add(tab); err != nil {
		t.Fatal(err)
	}
	if tab.Columns[0].Distinct != 1 {
		t.Errorf("zero distinct not clamped to 1: %d", tab.Columns[0].Distinct)
	}
	if tab.Columns[1].Distinct != 100 {
		t.Errorf("distinct not clamped to row count: %d", tab.Columns[1].Distinct)
	}
}

func TestMustAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd with invalid table did not panic")
		}
	}()
	New().MustAdd(&Table{})
}

func TestTypeString(t *testing.T) {
	for ty, want := range map[Type]string{Int: "int", Float: "float", String: "string", Date: "date", Type(9): "type(9)"} {
		if got := ty.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", ty, got, want)
		}
	}
}
