package orthoq

import (
	"testing"

	"orthoq/internal/sql/types"
)

// TestIndexSeekSeesInsertedRows pins the fix for stale index lookups:
// rows inserted after the last Analyze are not in the index
// structures, yet a count through the orders_ck hash-index seek must
// equal the same count through a full scan (o_custkey + 0 defeats the
// seek), both right after the insert and after a re-Analyze.
func TestIndexSeekSeesInsertedRows(t *testing.T) {
	db, err := OpenTPCH(0.002, 11)
	if err != nil {
		t.Fatal(err)
	}
	const seek = "select count(*) from orders where o_custkey = 7"
	const scan = "select count(*) from orders where o_custkey + 0 = 7"
	count := func(sql string) int64 {
		t.Helper()
		cfg := DefaultConfig()
		cfg.PlanCache.Disabled = true
		r, err := db.QueryCfg(sql, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.Data[0][0].Int()
	}
	before := count(seek)
	if got := count(scan); got != before {
		t.Fatalf("before any insert: seek %d, scan %d", before, got)
	}
	for i := int64(0); i < 3; i++ {
		row := Row{types.NewInt(9_000_000 + i), types.NewInt(7), types.NewString("O"),
			types.NewFloat(1000), types.NewDate(9000), types.NewString("1-URGENT"),
			types.NewString("Clerk#000000001"), types.NewInt(0), types.NewString("inserted")}
		if err := db.Insert("orders", row); err != nil {
			t.Fatal(err)
		}
		want := before + i + 1
		if got := count(scan); got != want {
			t.Fatalf("after %d inserts: scan counted %d, want %d", i+1, got, want)
		}
		if got := count(seek); got != want {
			t.Fatalf("after %d inserts: index seek counted %d, scan %d", i+1, got, want)
		}
	}
	db.Analyze()
	if got := count(seek); got != before+3 {
		t.Fatalf("after Analyze: index seek counted %d, want %d", got, before+3)
	}
}
