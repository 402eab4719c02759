package stats

import (
	"math/rand"
	"testing"

	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
)

func buildStore(t *testing.T, n int, f func(i int) types.Row) *storage.Store {
	t.Helper()
	st := storage.New(catalog.New())
	tbl, err := st.CreateTable(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "id", Type: types.Int},
			{Name: "grp", Type: types.Int},
			{Name: "val", Type: types.Float, Nullable: true},
			{Name: "name", Type: types.String},
		},
		Key: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tbl.Insert(f(i)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestCollectBasics(t *testing.T) {
	st := buildStore(t, 1000, func(i int) types.Row {
		var v types.Datum
		if i%10 == 0 {
			v = types.NullUnknown
		} else {
			v = types.NewFloat(float64(i))
		}
		return types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(i % 7)), v,
			types.NewString([]string{"a", "b", "c"}[i%3]),
		}
	})
	c := Collect(st)
	ts := c.Table("t")
	if ts == nil {
		t.Fatal("no stats for t")
	}
	if ts.RowCount != 1000 {
		t.Errorf("rows = %d", ts.RowCount)
	}
	id := ts.Columns[0]
	if id.Distinct != 1000 || id.NullCount != 0 {
		t.Errorf("id: distinct=%d nulls=%d", id.Distinct, id.NullCount)
	}
	if id.Min.Int() != 0 || id.Max.Int() != 999 {
		t.Errorf("id range = [%v, %v]", id.Min, id.Max)
	}
	grp := ts.Columns[1]
	if grp.Distinct != 7 {
		t.Errorf("grp distinct = %d", grp.Distinct)
	}
	val := ts.Columns[2]
	if val.NullCount != 100 {
		t.Errorf("val nulls = %d", val.NullCount)
	}
	name := ts.Columns[3]
	if name.Distinct != 3 {
		t.Errorf("name distinct = %d", name.Distinct)
	}
	if len(name.Hist) != 0 {
		t.Error("strings must not get histograms")
	}
	if len(id.Hist) == 0 {
		t.Error("id should have a histogram")
	}
	// Case-insensitive lookup and missing table.
	if c.Table("T") == nil {
		t.Error("case-insensitive stats lookup failed")
	}
	if c.Table("nope") != nil {
		t.Error("missing table should be nil")
	}
}

func TestSelectivityLTAgainstTruth(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	vals := make([]int64, 5000)
	st := buildStore(t, 5000, func(i int) types.Row {
		v := int64(rnd.Intn(10000))
		vals[i] = v
		return types.Row{types.NewInt(int64(i)), types.NewInt(v),
			types.NewFloat(0), types.NewString("x")}
	})
	c := Collect(st)
	grp := &c.Table("t").Columns[1]
	for _, threshold := range []int64{0, 1000, 2500, 5000, 9000, 10000} {
		truth := 0
		for _, v := range vals {
			if v < threshold {
				truth++
			}
		}
		want := float64(truth) / 5000
		got := grp.SelectivityLT(types.NewInt(threshold), 5000)
		if diff := got - want; diff > 0.08 || diff < -0.08 {
			t.Errorf("LT(%d): got %.3f, truth %.3f", threshold, got, want)
		}
	}
}

func TestSelectivityEq(t *testing.T) {
	st := buildStore(t, 700, func(i int) types.Row {
		return types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7)),
			types.NewFloat(0), types.NewString("x")}
	})
	c := Collect(st)
	grp := &c.Table("t").Columns[1]
	got := grp.SelectivityEq(700)
	if got < 0.13 || got > 0.15 { // 1/7 ≈ 0.143
		t.Errorf("eq selectivity = %.3f, want ~1/7", got)
	}
	// Degenerate column stats fall back to a default.
	empty := &ColumnStats{}
	if s := empty.SelectivityEq(0); s <= 0 || s > 1 {
		t.Errorf("degenerate eq = %v", s)
	}
}

func TestSmallTableNoHistogram(t *testing.T) {
	st := buildStore(t, 10, func(i int) types.Row {
		return types.Row{types.NewInt(int64(i)), types.NewInt(int64(i)),
			types.NewFloat(0), types.NewString("x")}
	})
	c := Collect(st)
	id := c.Table("t").Columns[0]
	if len(id.Hist) != 0 {
		t.Error("tiny tables should skip histograms")
	}
	// Interpolation fallback still gives sane numbers.
	got := id.SelectivityLT(types.NewInt(5), 10)
	if got < 0.3 || got > 0.8 {
		t.Errorf("interpolated LT = %v", got)
	}
}

// TestTableLookupAllocs pins the allocation-free lookup path: a name
// that is already lower-case is used as the map key without a copy,
// and an upper-case spelling still folds to the same table.
func TestTableLookupAllocs(t *testing.T) {
	st := buildStore(t, 10, func(i int) types.Row {
		return types.Row{types.NewInt(int64(i)), types.NewInt(0), types.NewFloat(0), types.NewString("a")}
	})
	c := Collect(st)
	if c.Table("T") != c.Table("t") || c.Table("t") == nil {
		t.Fatal("case-folded lookup disagrees")
	}
	name := "t"
	if n := testing.AllocsPerRun(100, func() { _ = c.Table(name) }); n != 0 {
		t.Errorf("lower-case Table lookup allocates %v times, want 0", n)
	}
}
