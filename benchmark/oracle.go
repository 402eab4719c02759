package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"orthoq"
	"orthoq/internal/sql/types"
)

// cell is one result value in a form both the library (types.Datum)
// and the wire (JSON) produce: numbers compare with a tolerance,
// everything else as text.
type cell struct {
	null  bool
	isNum bool
	num   float64
	str   string
}

// bag is a result as an unordered multiset of rows.
type bag [][]cell

func datumCell(d types.Datum) cell {
	if d.IsNull() {
		return cell{null: true}
	}
	switch d.Kind() {
	case types.Int:
		return cell{isNum: true, num: float64(d.Int())}
	case types.Float:
		return cell{isNum: true, num: d.Float()}
	case types.String:
		return cell{str: d.Str()}
	case types.Bool:
		return cell{str: fmt.Sprint(d.Bool())}
	}
	return cell{str: d.String()}
}

func jsonCell(v any) (cell, error) {
	switch x := v.(type) {
	case nil:
		return cell{null: true}, nil
	case json.Number:
		f, err := x.Float64()
		if err != nil {
			return cell{}, fmt.Errorf("bad number %q", x)
		}
		return cell{isNum: true, num: f}, nil
	case string:
		return cell{str: x}, nil
	case bool:
		return cell{str: fmt.Sprint(x)}, nil
	}
	return cell{}, fmt.Errorf("unexpected JSON value %T", v)
}

func rowsBag(rows []orthoq.Row) bag {
	b := make(bag, len(rows))
	for i, r := range rows {
		b[i] = make([]cell, len(r))
		for j, d := range r {
			b[i][j] = datumCell(d)
		}
	}
	return b
}

func less(a, b []cell) bool {
	for i := range a {
		x, y := a[i], b[i]
		switch {
		case x.null != y.null:
			return x.null
		case x.null:
			continue
		case x.isNum != y.isNum:
			return x.isNum
		case x.isNum && x.num != y.num:
			return x.num < y.num
		case !x.isNum && x.str != y.str:
			return x.str < y.str
		}
	}
	return false
}

// near reports whether two numbers agree to the tolerance float
// aggregation order allows.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9+1e-6*math.Max(math.Abs(a), math.Abs(b))
}

func cellEqual(x, y cell) bool {
	switch {
	case x.null || y.null:
		return x.null == y.null
	case x.isNum != y.isNum:
		return false
	case x.isNum:
		return near(x.num, y.num)
	}
	return x.str == y.str
}

// sorted returns a sorted copy of the bag.
func (b bag) sorted() bag {
	s := append(bag(nil), b...)
	sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
	return s
}

// diff compares two bags with a float tolerance and describes the first
// difference ("" when equal). want must already be sorted.
func diff(got, want bag) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	g := got.sorted()
	for i := range g {
		if len(g[i]) != len(want[i]) {
			return fmt.Sprintf("row %d has %d columns, want %d", i, len(g[i]), len(want[i]))
		}
		for j := range g[i] {
			if !cellEqual(g[i][j], want[i][j]) {
				return fmt.Sprintf("row %d: %s, want %s", i, rowString(g[i]), rowString(want[i]))
			}
		}
	}
	return ""
}

func rowString(r []cell) string {
	parts := make([]string, len(r))
	for i, c := range r {
		switch {
		case c.null:
			parts[i] = "NULL"
		case c.isNum:
			parts[i] = fmt.Sprint(c.num)
		default:
			parts[i] = c.str
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// referenceConfig is the oracle's configuration: the zero Config —
// correlated, unoptimized execution with no cost-based search — with
// the plan cache bypassed so the reference leaves no cached state
// behind for the timed configuration.
func referenceConfig() orthoq.Config {
	var cfg orthoq.Config
	cfg.PlanCache.Disabled = true
	return cfg
}

// reference runs sql under the reference configuration and returns its
// result as a sorted bag.
func reference(db *orthoq.DB, sql string) (bag, error) {
	rows, err := db.QueryCfg(sql, referenceConfig())
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return rowsBag(rows.Data).sorted(), nil
}

// corrupt perturbs a reference so a correct answer no longer matches it;
// the benchmark's own test uses it to prove the oracle is live.
func corrupt(b bag) bag {
	if len(b) == 0 {
		return bag{{cell{str: "corrupted"}}}
	}
	c := append(bag(nil), b...)
	row := append([]cell(nil), c[0]...)
	if row[0].isNum {
		row[0].num = row[0].num*2 + 1
	} else {
		row[0] = cell{str: row[0].str + "~"}
	}
	c[0] = row
	return c.sorted()
}
