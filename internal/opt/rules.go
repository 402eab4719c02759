package opt

import (
	"sort"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/catalog"
)

// commuteJoin swaps the inputs of an inner or cross join.
func commuteJoin(j *algebra.Join) (algebra.Rel, bool) {
	if j.Kind != algebra.InnerJoin && j.Kind != algebra.CrossJoin {
		return nil, false
	}
	return &algebra.Join{Kind: j.Kind, Left: j.Right, Right: j.Left, On: j.On}, true
}

// rotateJoinRight reassociates (A ⋈ B) ⋈ C into A ⋈ (B ⋈ C),
// redistributing predicate conjuncts by the columns they need. The
// conjunct set is first expanded with transitively implied column
// equalities so that rotations expose joins the original spelling hid
// — e.g. Q17's l_partkey = l2_partkey, implied through p_partkey,
// which SegmentApply detection needs (Figure 6).
func rotateJoinRight(m *memo, j *algebra.Join) (algebra.Rel, bool) {
	if !innerOrCross(j.Kind) {
		return nil, false
	}
	lj, ok := j.Left.(*algebra.Join)
	if !ok || !innerOrCross(lj.Kind) {
		return nil, false
	}
	a, b, c := lj.Left, lj.Right, j.Right
	bcCols := m.outFn(b).Union(m.outFn(c))
	inner, outer := splitConjuncts(
		eqClosure(append(algebra.Conjuncts(lj.On), algebra.Conjuncts(j.On)...)), bcCols)
	nj := &algebra.Join{Kind: joinKindFor(inner), Left: b, Right: c, On: onFor(inner)}
	return &algebra.Join{Kind: joinKindFor(outer), Left: a, Right: nj, On: onFor(outer)}, true
}

// rotateJoinLeft reassociates A ⋈ (B ⋈ C) into (A ⋈ B) ⋈ C.
func rotateJoinLeft(m *memo, j *algebra.Join) (algebra.Rel, bool) {
	if !innerOrCross(j.Kind) {
		return nil, false
	}
	rj, ok := j.Right.(*algebra.Join)
	if !ok || !innerOrCross(rj.Kind) {
		return nil, false
	}
	a, b, c := j.Left, rj.Left, rj.Right
	abCols := m.outFn(a).Union(m.outFn(b))
	inner, outer := splitConjuncts(
		eqClosure(append(algebra.Conjuncts(rj.On), algebra.Conjuncts(j.On)...)), abCols)
	nj := &algebra.Join{Kind: joinKindFor(inner), Left: a, Right: b, On: onFor(inner)}
	return &algebra.Join{Kind: joinKindFor(outer), Left: nj, Right: c, On: onFor(outer)}, true
}

// splitConjuncts partitions conjuncts into those fully covered by the
// inner column set and the rest.
func splitConjuncts(conjs []algebra.Scalar, innerCols algebra.ColSet) (inner, outer []algebra.Scalar) {
	for _, conj := range conjs {
		if algebra.ScalarCols(conj).SubsetOf(innerCols) && !algebra.HasSubquery(conj) {
			inner = append(inner, conj)
		} else {
			outer = append(outer, conj)
		}
	}
	return inner, outer
}

// eqClosure extends a conjunct list with every column equality implied
// transitively by its col = col conjuncts (a = b ∧ b = c ⇒ a = c).
func eqClosure(conjs []algebra.Scalar) []algebra.Scalar {
	parent := map[algebra.ColID]algebra.ColID{}
	var find func(algebra.ColID) algebra.ColID
	find = func(c algebra.ColID) algebra.ColID {
		p, ok := parent[c]
		if !ok || p == c {
			parent[c] = c
			return c
		}
		r := find(p)
		parent[c] = r
		return r
	}
	union := func(a, b algebra.ColID) {
		parent[find(a)] = find(b)
	}
	have := map[[2]algebra.ColID]bool{}
	for _, conj := range conjs {
		if cmp, ok := conj.(*algebra.Cmp); ok && cmp.Op == algebra.CmpEq {
			l, lok := cmp.L.(*algebra.ColRef)
			r, rok := cmp.R.(*algebra.ColRef)
			if lok && rok {
				union(l.Col, r.Col)
				a, b := l.Col, r.Col
				if a > b {
					a, b = b, a
				}
				have[[2]algebra.ColID{a, b}] = true
			}
		}
	}
	classes := map[algebra.ColID][]algebra.ColID{}
	for c := range parent {
		root := find(c)
		classes[root] = append(classes[root], c)
	}
	// Visit classes in a fixed order (by smallest member) so the
	// rewrite, and its rendering, depend only on the input.
	groups := make([][]algebra.ColID, 0, len(classes))
	for _, members := range classes {
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		groups = append(groups, members)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	out := append([]algebra.Scalar(nil), conjs...)
	for _, members := range groups {
		for i := 0; i < len(members); i++ {
			for k := i + 1; k < len(members); k++ {
				key := [2]algebra.ColID{members[i], members[k]}
				if have[key] {
					continue
				}
				have[key] = true
				out = append(out, &algebra.Cmp{Op: algebra.CmpEq,
					L: &algebra.ColRef{Col: members[i]}, R: &algebra.ColRef{Col: members[k]}})
			}
		}
	}
	return out
}

func innerOrCross(k algebra.JoinKind) bool {
	return k == algebra.InnerJoin || k == algebra.CrossJoin
}

func joinKindFor(conjs []algebra.Scalar) algebra.JoinKind {
	if len(conjs) == 0 {
		return algebra.CrossJoin
	}
	return algebra.InnerJoin
}

func onFor(conjs []algebra.Scalar) algebra.Scalar {
	if len(conjs) == 0 {
		return nil
	}
	return algebra.ConjoinAll(conjs...)
}

// joinToApply reintroduces correlated execution (paper §4: "the
// simplest and most common being index-lookup-join"): a join whose
// right side is a base-table access with an index on an equality
// column becomes an Apply that seeks the index once per outer row.
func joinToApply(m *memo, cat *catalog.Catalog, n *node) (algebra.Rel, bool) {
	j := n.rel.(*algebra.Join)
	if j.On == nil {
		return nil, false
	}
	switch j.Kind {
	case algebra.InnerJoin, algebra.SemiJoin, algebra.AntiSemiJoin, algebra.LeftOuterJoin:
	default:
		return nil, false
	}
	// Right side must be a (possibly filtered) base table access.
	var get *algebra.Get
	switch rt := j.Right.(type) {
	case *algebra.Get:
		get = rt
	case *algebra.Select:
		if g, ok := rt.Input.(*algebra.Get); ok {
			get = g
		}
	}
	if get == nil {
		return nil, false
	}
	tbl, ok := cat.Table(get.Table)
	if !ok {
		return nil, false
	}
	// Some equality conjunct must bind an indexed column of the right
	// table to a left-side expression.
	leftCols := m.outputCols(n.kids[0])
	rightCols := algebra.NewColSet(get.Cols...)
	seekable := false
	for _, conj := range algebra.Conjuncts(j.On) {
		cmp, okc := conj.(*algebra.Cmp)
		if !okc || cmp.Op != algebra.CmpEq {
			continue
		}
		col, other := cmp.L, cmp.R
		cr, isCR := col.(*algebra.ColRef)
		if !isCR || !rightCols.Contains(cr.Col) {
			cr2, isCR2 := other.(*algebra.ColRef)
			if !isCR2 || !rightCols.Contains(cr2.Col) {
				continue
			}
			cr, other = cr2, col
		}
		if !algebra.ScalarCols(other).SubsetOf(leftCols) {
			continue
		}
		ord := m.md.Column(cr.Col).Ord
		if tbl.IndexOn([]int{ord}) != nil {
			seekable = true
			break
		}
	}
	if !seekable {
		return nil, false
	}
	// Fold the join predicate into a correlated select over the right
	// side so the executor's seek detection picks it up.
	inner := &algebra.Select{Input: j.Right, Filter: j.On}
	return &algebra.Apply{Kind: j.Kind, Left: j.Left, Right: inner}, true
}
