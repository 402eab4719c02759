package opt

import (
	"fmt"
	"strings"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/catalog"
	"orthoq/internal/stats"
)

// FormatWithEstimates renders a plan with per-node cardinality and
// cost estimates, for EXPLAIN output and cost-model debugging.
// strategies, when non-nil, holds the physical algorithm the executor
// compiled for each node (exec.Strategies); it is printed on that
// node's line. A nil map prints estimates only.
func FormatWithEstimates(md *algebra.Metadata, cat *catalog.Catalog, st *stats.Collection, r algebra.Rel, strategies map[algebra.Rel]string) string {
	c := &coster{md: md, cat: cat, st: st}
	var b strings.Builder
	var walk func(algebra.Rel, int)
	walk = func(n algebra.Rel, depth int) {
		est := c.cost(n)
		line := algebra.FormatRel(md, n)
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s  [rows≈%.0f cost≈%.0f%s]\n", line, est.rows, est.cost, strategyNote(n, strategies[n]))
		// Costing an Apply/SegmentApply inner requires scope bindings;
		// replicate the scopes while walking.
		switch t := n.(type) {
		case *algebra.Apply:
			walk(t.Left, depth+1)
			restore := c.bindScope(algebra.OutputCols(t.Left))
			walk(t.Right, depth+1)
			restore()
		case *algebra.SegmentApply:
			walk(t.Input, depth+1)
			in := c.cost(t.Input)
			segs := 1.0
			for _, col := range t.SegmentCols.Ordered() {
				if d := c.distinct(col, in.rows); d > segs {
					segs = d
				}
			}
			if m := in.rows; segs > m && m >= 1 {
				segs = m
			}
			restore := c.segmentScope(in.rows / segs)
			walk(t.Inner, depth+1)
			restore()
		default:
			for _, child := range n.Inputs() {
				walk(child, depth+1)
			}
		}
	}
	walk(r, 0)
	return b.String()
}

// strategyNote renders an executor strategy as its EXPLAIN annotation.
// An ordered Get reads "sort elided" when an index delivers the order
// and "scan+sort" when the executor sorts a full scan instead.
func strategyNote(n algebra.Rel, s string) string {
	if s == "" {
		return ""
	}
	switch n.(type) {
	case *algebra.Apply:
		return " apply=" + s
	case *algebra.Join:
		return " join=" + s
	case *algebra.GroupBy:
		return " agg=" + s
	case *algebra.Get:
		if s == "index order" {
			return " sort elided"
		}
		return " scan+sort"
	}
	return ""
}
