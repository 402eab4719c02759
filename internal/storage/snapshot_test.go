package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/types"
)

func TestVersionPinning(t *testing.T) {
	tbl := newTestTable(t, 10)
	v := tbl.Version()
	if v.RowCount() != 10 {
		t.Fatalf("version rows = %d, want 10", v.RowCount())
	}
	if err := tbl.Insert(types.Row{types.NewInt(100), types.NewInt(0), types.NewFloat(0)}); err != nil {
		t.Fatal(err)
	}
	if v.RowCount() != 10 {
		t.Errorf("pinned version grew to %d rows", v.RowCount())
	}
	if tbl.Version().RowCount() != 11 {
		t.Errorf("current version = %d rows, want 11", tbl.Version().RowCount())
	}
}

func TestSnapshotPinsAllTables(t *testing.T) {
	st := New(catalog.New())
	tbl, err := st.CreateTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	tbl.Insert(types.Row{types.NewInt(1), types.NewInt(0), types.NewFloat(0)})
	sn := st.Snapshot()

	tbl.Insert(types.Row{types.NewInt(2), types.NewInt(0), types.NewFloat(0)})
	other := &catalog.Table{Name: "after", Columns: []catalog.Column{{Name: "x", Type: types.Int}}, Key: []int{0}}
	if _, err := st.CreateTable(other); err != nil {
		t.Fatal(err)
	}

	v, ok := sn.Table("t")
	if !ok || v.RowCount() != 1 {
		t.Errorf("snapshot sees %d rows in t, want 1", v.RowCount())
	}
	if _, ok := sn.Table("after"); ok {
		t.Error("snapshot sees a table created after it was taken")
	}
	if got := tbl.Version().RowCount(); got != 2 {
		t.Errorf("live version = %d rows, want 2", got)
	}
}

func TestInsertAllAtomicPublication(t *testing.T) {
	// An invalid row anywhere in the batch publishes nothing.
	tbl := newTestTable(t, 5)
	batch := []types.Row{
		{types.NewInt(50), types.NewInt(0), types.NewFloat(0)},
		{types.NewString("bad"), types.NewInt(0), types.NewFloat(0)},
	}
	if err := tbl.InsertAll(batch); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if got := tbl.Version().RowCount(); got != 5 {
		t.Errorf("failed batch published rows: %d, want 5", got)
	}
}

func TestUnindexedTailVisibleToLookups(t *testing.T) {
	// Rows inserted after BuildIndexes are not in the index structures,
	// but every index read covers them: Lookup and RangeScan on the
	// stale version answer exactly what a rebuilt index answers.
	tbl := newTestTable(t, 10)
	tbl.Insert(types.Row{types.NewInt(200), types.NewInt(3), types.NewFloat(0)})
	tbl.Insert(types.Row{types.NewInt(-5), types.NewInt(3), types.NewFloat(0)})
	tbl.Insert(types.Row{types.NewInt(4), types.NewInt(9), types.NewFloat(0)})
	v := tbl.Version()
	if v.RowCount() != 13 {
		t.Fatalf("scan sees %d rows, want 13", v.RowCount())
	}
	if got := v.Lookup("t_pk", []types.Datum{types.NewInt(200)}); len(got) != 1 || got[0] != 10 {
		t.Errorf("ordered lookup of an unindexed row: %v, want [10]", got)
	}
	if got := v.Lookup("t_grp", []types.Datum{types.NewInt(3)}); len(got) != 3 || got[1] != 10 || got[2] != 11 {
		t.Errorf("hash lookup over indexed and unindexed rows: %v, want [3 10 11]", got)
	}
	if _, ok := v.OrderedScan("t_pk"); ok {
		t.Error("OrderedScan handed out a permutation that misses the unindexed rows")
	}
	stale := map[string][]int{
		"pk 4":    v.Lookup("t_pk", []types.Datum{types.NewInt(4)}),
		"grp 9":   v.Lookup("t_grp", []types.Datum{types.NewInt(9)}),
		"range":   v.RangeScan("t_pk", []types.Datum{types.NewInt(-10)}, []types.Datum{types.NewInt(5)}),
		"all":     v.RangeScan("t_pk", nil, nil),
		"low":     v.RangeScan("t_pk", nil, []types.Datum{types.NewInt(0)}),
		"missing": v.Lookup("t_pk", []types.Datum{types.NewInt(7000)}),
	}
	tbl.BuildIndexes()
	fresh := tbl.Version()
	want := map[string][]int{
		"pk 4":    fresh.Lookup("t_pk", []types.Datum{types.NewInt(4)}),
		"grp 9":   fresh.Lookup("t_grp", []types.Datum{types.NewInt(9)}),
		"range":   fresh.RangeScan("t_pk", []types.Datum{types.NewInt(-10)}, []types.Datum{types.NewInt(5)}),
		"all":     fresh.RangeScan("t_pk", nil, nil),
		"low":     fresh.RangeScan("t_pk", nil, []types.Datum{types.NewInt(0)}),
		"missing": fresh.Lookup("t_pk", []types.Datum{types.NewInt(7000)}),
	}
	for k, w := range want {
		if fmt.Sprint(stale[k]) != fmt.Sprint(w) {
			t.Errorf("%s: stale index answered %v, rebuilt index %v", k, stale[k], w)
		}
	}
	if got := want["range"]; len(got) != 7 || got[0] != 11 || got[6] != 12 {
		t.Errorf("range [-10, 5) = %v, want [11 0 1 2 3 4 12]", got)
	}
}

func TestUnindexedTailMatchesRebuild(t *testing.T) {
	// Property: after random inserts past the last BuildIndexes, every
	// lookup and range scan equals the rebuilt index's answer.
	rnd := rand.New(rand.NewSource(3))
	for iter := 0; iter < 50; iter++ {
		tbl := newTestTable(t, rnd.Intn(40))
		for i, n := 0, rnd.Intn(30); i < n; i++ {
			id := int64(rnd.Intn(80) - 20)
			tbl.Insert(types.Row{types.NewInt(id), types.NewInt(int64(rnd.Intn(9))), types.NewFloat(0)})
		}
		stale := tbl.Version()
		tbl.BuildIndexes()
		fresh := tbl.Version()
		for k := int64(-22); k < 62; k += 3 {
			key := []types.Datum{types.NewInt(k)}
			grp := []types.Datum{types.NewInt(k % 9)}
			hiKey := []types.Datum{types.NewInt(k + int64(rnd.Intn(20)))}
			for _, c := range []struct {
				what      string
				got, want []int
			}{
				{"pk", stale.Lookup("t_pk", key), fresh.Lookup("t_pk", key)},
				{"grp", stale.Lookup("t_grp", grp), fresh.Lookup("t_grp", grp)},
				{"range", stale.RangeScan("t_pk", key, hiKey), fresh.RangeScan("t_pk", key, hiKey)},
				{"from", stale.RangeScan("t_pk", key, nil), fresh.RangeScan("t_pk", key, nil)},
			} {
				if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
					t.Fatalf("%s at %d: stale %v, rebuilt %v", c.what, k, c.got, c.want)
				}
			}
		}
	}
}

func TestConcurrentInsertAndSnapshot(t *testing.T) {
	// Batches publish all-or-nothing: every snapshot's row count is a
	// multiple of the batch size. Run with -race.
	st := New(catalog.New())
	tbl, err := st.CreateTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	const writers, batches, batchSize = 4, 25, 8
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sn := st.Snapshot()
			v, _ := sn.Table("t")
			if n := v.RowCount(); n%batchSize != 0 {
				t.Errorf("torn publication: snapshot sees %d rows (not a multiple of %d)", n, batchSize)
				return
			}
		}
	}()
	var writersWg sync.WaitGroup
	var next int64
	var idMu sync.Mutex
	for w := 0; w < writers; w++ {
		writersWg.Add(1)
		go func() {
			defer writersWg.Done()
			for b := 0; b < batches; b++ {
				idMu.Lock()
				base := next
				next += batchSize
				idMu.Unlock()
				rows := make([]types.Row, batchSize)
				for i := range rows {
					rows[i] = types.Row{types.NewInt(base + int64(i)), types.NewInt(0), types.NewFloat(0)}
				}
				if err := tbl.InsertAll(rows); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writersWg.Wait()
	close(stop)
	<-readerDone
	if got := tbl.Version().RowCount(); got != writers*batches*batchSize {
		t.Errorf("final rows = %d, want %d", got, writers*batches*batchSize)
	}
}
