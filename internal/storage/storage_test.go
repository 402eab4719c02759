package storage

import (
	"math/rand"
	"testing"

	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/types"
)

func testSchema() *catalog.Table {
	return &catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "id", Type: types.Int},
			{Name: "grp", Type: types.Int},
			{Name: "val", Type: types.Float, Nullable: true},
		},
		Key: []int{0},
		Indexes: []catalog.Index{
			{Name: "t_pk", Cols: []int{0}, Unique: true, Ordered: true},
			{Name: "t_grp", Cols: []int{1}},
		},
	}
}

func newTestTable(t *testing.T, n int) *Table {
	t.Helper()
	st := New(catalog.New())
	tbl, err := st.CreateTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7)), types.NewFloat(float64(i) / 2)}
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	tbl.BuildIndexes()
	return tbl
}

func TestInsertValidation(t *testing.T) {
	st := New(catalog.New())
	tbl, err := st.CreateTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(types.Row{types.NewInt(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := tbl.Insert(types.Row{types.Null(types.Int), types.NewInt(0), types.NewFloat(0)}); err == nil {
		t.Error("NULL in non-nullable column accepted")
	}
	if err := tbl.Insert(types.Row{types.NewString("x"), types.NewInt(0), types.NewFloat(0)}); err == nil {
		t.Error("type mismatch accepted")
	}
	if err := tbl.Insert(types.Row{types.NewInt(1), types.NewInt(0), types.Null(types.Float)}); err != nil {
		t.Errorf("NULL in nullable column rejected: %v", err)
	}
}

func TestDuplicateTable(t *testing.T) {
	st := New(catalog.New())
	if _, err := st.CreateTable(testSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CreateTable(testSchema()); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, ok := st.Table("T"); !ok {
		t.Error("case-insensitive lookup failed")
	}
}

func TestHashIndexLookup(t *testing.T) {
	tbl := newTestTable(t, 70)
	got := tbl.Lookup("t_grp", []types.Datum{types.NewInt(3)})
	if len(got) != 10 {
		t.Fatalf("grp=3 lookup: got %d rows, want 10", len(got))
	}
	for _, ord := range got {
		if tbl.Rows[ord][1].Int() != 3 {
			t.Errorf("row %d has grp %v", ord, tbl.Rows[ord][1])
		}
	}
	if got := tbl.Lookup("t_grp", []types.Datum{types.NewInt(99)}); len(got) != 0 {
		t.Errorf("missing key returned %d rows", len(got))
	}
}

func TestOrderedIndexLookupAndRange(t *testing.T) {
	tbl := newTestTable(t, 100)
	got := tbl.Lookup("t_pk", []types.Datum{types.NewInt(42)})
	if len(got) != 1 || tbl.Rows[got[0]][0].Int() != 42 {
		t.Fatalf("pk lookup: got %v", got)
	}
	rng := tbl.RangeScan("t_pk", []types.Datum{types.NewInt(10)}, []types.Datum{types.NewInt(15)})
	if len(rng) != 5 {
		t.Fatalf("range [10,15): got %d rows", len(rng))
	}
	for i, ord := range rng {
		if want := int64(10 + i); tbl.Rows[ord][0].Int() != want {
			t.Errorf("range order: got %v want %d", tbl.Rows[ord][0], want)
		}
	}
	if all := tbl.RangeScan("t_pk", nil, nil); len(all) != 100 {
		t.Errorf("unbounded range: got %d", len(all))
	}
}

func TestLookupMatchesLinearScan(t *testing.T) {
	// Property-style test with random data: index lookups agree with a
	// linear scan filter.
	st := New(catalog.New())
	tbl, err := st.CreateTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		tbl.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(int64(r.Intn(20))), types.NewFloat(r.Float64())})
	}
	tbl.BuildIndexes()
	for k := int64(0); k < 25; k++ {
		want := 0
		for _, row := range tbl.Rows {
			if row[1].Int() == k {
				want++
			}
		}
		got := tbl.Lookup("t_grp", []types.Datum{types.NewInt(k)})
		if len(got) != want {
			t.Errorf("key %d: lookup %d rows, scan %d", k, len(got), want)
		}
	}
}

func TestCatalogValidation(t *testing.T) {
	c := catalog.New()
	bad := &catalog.Table{Name: "b", Columns: []catalog.Column{{Name: "x", Type: types.Int}}}
	if err := c.Add(bad); err == nil {
		t.Error("table without key accepted")
	}
	bad2 := &catalog.Table{Name: "b2", Columns: []catalog.Column{{Name: "x", Type: types.Int}}, Key: []int{5}}
	if err := c.Add(bad2); err == nil {
		t.Error("out-of-range key accepted")
	}
	bad3 := &catalog.Table{Name: "b3", Columns: []catalog.Column{
		{Name: "x", Type: types.Int}, {Name: "X", Type: types.Int}}, Key: []int{0}}
	if err := c.Add(bad3); err == nil {
		t.Error("duplicate column accepted")
	}
}

func TestIndexOn(t *testing.T) {
	sch := testSchema()
	if idx := sch.IndexOn([]int{0}); idx == nil || idx.Name != "t_pk" {
		t.Errorf("IndexOn([0]) = %v", idx)
	}
	if idx := sch.IndexOn([]int{1}); idx == nil || idx.Name != "t_grp" {
		t.Errorf("IndexOn([1]) = %v", idx)
	}
	if idx := sch.IndexOn([]int{2}); idx != nil {
		t.Errorf("IndexOn([2]) = %v, want nil", idx)
	}
}

// TestStoreTableLookupAllocs checks that a lower-case table lookup
// does not copy the name and that upper-case spellings still fold.
func TestStoreTableLookupAllocs(t *testing.T) {
	st := New(catalog.New())
	if _, err := st.CreateTable(testSchema()); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Table("T"); !ok {
		t.Fatal("upper-case lookup missed")
	}
	name := "t"
	if n := testing.AllocsPerRun(100, func() { st.Table(name) }); n != 0 {
		t.Errorf("lower-case Table lookup allocates %v times, want 0", n)
	}
}
