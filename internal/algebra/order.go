package algebra

// Physical ordering properties. An []Ordering describes a total order
// on rows: sorted by the first key, ties broken by the second, and so
// on. DeliveredOrder derives the order a subtree is guaranteed to
// produce; OrderCovers / GroupedBy test whether that guarantee
// satisfies a requirement. The derivation is deliberately conservative:
// operators whose physical implementation may destroy order (hash
// join, hash aggregation, exchange) deliver no order, so a consumer
// that finds its requirement covered can always trust it regardless of
// which physical alternative the executor picks.

// DeliveredOrder returns the row order the subtree guarantees, or nil
// when it guarantees none. A Get with Order set is the root source of
// ordering (the executor honors it with an ordered index scan or an
// explicit sort); Sort establishes its keys; filters, limits, and
// column-preserving projections pass order through.
func DeliveredOrder(r Rel) []Ordering { return DeriveDeliveredOrder(r, DeliveredOrder, OutputCols) }

// DeriveDeliveredOrder computes r's delivered order from its input's
// (order) and r's output columns (out), like DeriveOutputCols. The
// result may share its backing array with the input's order or the
// node's own fields and must not be modified.
func DeriveDeliveredOrder(r Rel, order func(Rel) []Ordering, out func(Rel) ColSet) []Ordering {
	switch t := r.(type) {
	case *Get:
		return t.Order
	case *Sort:
		return t.By
	case *Select:
		return order(t.Input)
	case *Top:
		return order(t.Input)
	case *Max1Row:
		return order(t.Input)
	case *RowNumber:
		return order(t.Input)
	case *Project:
		// Order survives projection up to the longest prefix whose
		// columns are still visible in the output.
		in := order(t.Input)
		if len(in) == 0 {
			return nil
		}
		cols := out(t)
		n := 0
		for _, o := range in {
			if !cols.Contains(o.Col) {
				break
			}
			n++
		}
		return in[:n]
	}
	// Join, Apply, GroupBy, SegmentApply, UnionAll, Difference, Values:
	// no guarantee — the physical choice (hash vs merge, parallel
	// exchange) may destroy any input order.
	return nil
}

// OrderCovers reports whether rows ordered by delivered are necessarily
// ordered by required: required must be a prefix of delivered with
// matching directions. Rows sorted by (a, b) are sorted by (a), but
// not vice versa.
func OrderCovers(delivered, required []Ordering) bool {
	if len(required) > len(delivered) {
		return false
	}
	for i, o := range required {
		if delivered[i].Col != o.Col || delivered[i].Desc != o.Desc {
			return false
		}
	}
	return true
}

// GroupedBy reports whether rows ordered by delivered have all rows of
// each group (equal on every column of g) contiguous: some prefix of
// delivered must mention exactly the columns of g. Sorted by (a, b),
// groups on {a} and on {a, b} are contiguous; groups on {b} or
// {a, b, d} are not.
func GroupedBy(delivered []Ordering, g ColSet) bool {
	if g.Empty() {
		return true // a single global group is trivially contiguous
	}
	var seen ColSet
	for _, o := range delivered {
		if !g.Contains(o.Col) {
			return false
		}
		seen.Add(o.Col)
		if seen.Len() == g.Len() {
			return true
		}
	}
	return false
}

// OrderingCols returns the set of columns an ordering mentions.
func OrderingCols(by []Ordering) ColSet {
	var s ColSet
	for _, o := range by {
		s.Add(o.Col)
	}
	return s
}

// OrderingsEqual reports key-by-key equality.
func OrderingsEqual(a, b []Ordering) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The predicates below are pure on the logical tree. The executor's
// physical selection (merge vs hash join, stream vs hash aggregation)
// and the optimizer's cost model both call them, so the two agree on
// when an order-exploiting algorithm applies; only the executor
// decides which algorithm runs.

// AscOrder renders a column sequence as an all-ascending ordering.
func AscOrder(cols []ColID) []Ordering {
	by := make([]Ordering, len(cols))
	for i, c := range cols {
		by[i] = Ordering{Col: c}
	}
	return by
}

// SplitJoinKeys extracts equi-join keys (left-col = right-col
// conjuncts) from a join predicate, returning the paired key columns
// and the residual conjuncts. leftCols and rightCols are the two
// inputs' output columns.
func SplitJoinKeys(on Scalar, leftCols, rightCols ColSet) (lk, rk []ColID, residual []Scalar) {
	for _, c := range Conjuncts(on) {
		if cmp, ok := c.(*Cmp); ok && cmp.Op == CmpEq {
			l, lok := cmp.L.(*ColRef)
			r, rok := cmp.R.(*ColRef)
			if lok && rok {
				switch {
				case leftCols.Contains(l.Col) && rightCols.Contains(r.Col):
					lk = append(lk, l.Col)
					rk = append(rk, r.Col)
					continue
				case leftCols.Contains(r.Col) && rightCols.Contains(l.Col):
					lk = append(lk, r.Col)
					rk = append(rk, l.Col)
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	return lk, rk, residual
}

// MergeKeySeq picks the key comparison sequence for a merge join whose
// inputs deliver the orders dl and dr. Equality conjuncts carry no
// inherent order, so the sequence is aligned with the left input's
// delivered order when a permutation of the key pairs matches it
// (making the left side sort-free); otherwise the declared conjunct
// order is kept. lSorted/rSorted report whether each input's delivered
// order covers the chosen sequence ascending — sides not covered need
// an explicit sort.
func MergeKeySeq(dl, dr []Ordering, lKeys, rKeys []ColID) (lSeq, rSeq []ColID, lSorted, rSorted bool) {
	n := len(lKeys)
	if len(dl) >= n {
		used := make([]bool, n)
		ls := make([]ColID, 0, n)
		rs := make([]ColID, 0, n)
		ok := true
		for i := 0; i < n && ok; i++ {
			if dl[i].Desc {
				ok = false
				break
			}
			found := -1
			for k := 0; k < n; k++ {
				if !used[k] && lKeys[k] == dl[i].Col {
					found = k
					break
				}
			}
			if found < 0 {
				ok = false
				break
			}
			used[found] = true
			ls = append(ls, lKeys[found])
			rs = append(rs, rKeys[found])
		}
		if ok {
			return ls, rs, true, OrderCovers(dr, AscOrder(rs))
		}
	}
	return lKeys, rKeys, OrderCovers(dl, AscOrder(lKeys)), OrderCovers(dr, AscOrder(rKeys))
}

// MergeKeysSorted reports whether an equi-join with keys lKeys/rKeys
// over inputs delivering dl and dr can merge without sorting either
// side: keys exist and both delivered orders cover a key sequence.
func MergeKeysSorted(dl, dr []Ordering, lKeys, rKeys []ColID) bool {
	if len(lKeys) == 0 {
		return false
	}
	_, _, lSorted, rSorted := MergeKeySeq(dl, dr, lKeys, rKeys)
	return lSorted && rSorted
}

// StreamAggApplicable reports whether gb's input delivers an order
// that makes every group contiguous, i.e. whether the aggregation can
// stream over sorted input without a hash table.
func StreamAggApplicable(gb *GroupBy) bool {
	return GroupedBy(DeliveredOrder(gb.Input), gb.GroupCols)
}
