package algebra

import (
	"fmt"
	"strings"
)

// FormatRel renders the tree in an indented one-operator-per-line form
// used by EXPLAIN and by the golden plan-shape tests that mirror the
// paper's figures. Two trees render equally exactly when their roots'
// Lines are equal and their inputs render equally pairwise, as long as
// no Line contains a newline (only a string literal or a name with an
// embedded newline can put one there): the optimizer's memo interns
// nodes on that recursion instead of comparing whole renderings.
func FormatRel(md *Metadata, r Rel) string {
	var b strings.Builder
	f := Formatter{md: md}
	f.formatRel(r, 0, &b)
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func (f *Formatter) formatRel(r Rel, depth int, b *strings.Builder) {
	indent(b, depth)
	f.line(r, b)
	b.WriteByte('\n')
	for _, c := range r.Inputs() {
		f.formatRel(c, depth+1, b)
	}
}

// Formatter renders plan nodes one line at a time, and scalars. The
// zero value (as FormatRel and FormatScalar use it) renders from
// scratch; one made by NewFormatter memoizes scalar renderings by
// scalar pointer, so re-rendering a node whose expressions a rewrite
// reused costs only the node's own text. Scalars are immutable once
// built, which is what makes the pointer a sound key.
type Formatter struct {
	md      *Metadata
	scalars map[Scalar]string
	// ApplyBinds, when set, supplies an Apply's binding columns
	// (OuterRefs(Right) ∩ OutputCols(Left)) from a property cache
	// instead of deriving them from the subtrees.
	ApplyBinds func(*Apply) ColSet
}

// NewFormatter returns a Formatter that memoizes scalar renderings.
func NewFormatter(md *Metadata) *Formatter {
	return &Formatter{md: md, scalars: make(map[Scalar]string)}
}

// Line renders r's own line of FormatRel output: the operator and its
// arguments, without indentation, newline or inputs.
func (f *Formatter) Line(r Rel) string {
	var b strings.Builder
	f.line(r, &b)
	return b.String()
}

func (f *Formatter) line(r Rel, b *strings.Builder) {
	md := f.md
	switch t := r.(type) {
	case *Get:
		b.WriteString("Get ")
		b.WriteString(t.Table)
		if len(t.Order) > 0 {
			b.WriteString(" order=[")
			for i, o := range t.Order {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(md.QualifiedAlias(o.Col))
				if o.Desc {
					b.WriteString(" desc")
				}
			}
			b.WriteString("]")
		}
	case *Select:
		b.WriteString("Select [")
		b.WriteString(f.Scalar(t.Filter))
		b.WriteString("]")
	case *Project:
		b.WriteString("Project [")
		first := true
		t.Passthrough.ForEach(func(c ColID) {
			if !first {
				b.WriteString(", ")
			}
			b.WriteString(md.QualifiedAlias(c))
			first = false
		})
		for _, it := range t.Items {
			if !first {
				b.WriteString(", ")
			}
			b.WriteString(md.Alias(it.Col))
			b.WriteString(":=")
			b.WriteString(f.Scalar(it.Expr))
			first = false
		}
		b.WriteString("]")
	case *Join:
		b.WriteString(joinNames[t.Kind])
		if t.On != nil && !IsTrueConst(t.On) {
			b.WriteString(" [")
			b.WriteString(f.Scalar(t.On))
			b.WriteString("]")
		}
	case *Apply:
		b.WriteString(applyNames[t.Kind])
		var binds ColSet
		if f.ApplyBinds != nil {
			binds = f.ApplyBinds(t)
		} else {
			binds = OuterRefs(t.Right).Intersection(OutputCols(t.Left))
		}
		if !binds.Empty() {
			b.WriteString(" (bind:")
			first := true
			binds.ForEach(func(c ColID) {
				if !first {
					b.WriteString(",")
				}
				b.WriteString(md.QualifiedAlias(c))
				first = false
			})
			b.WriteString(")")
		}
		if t.On != nil && !IsTrueConst(t.On) {
			b.WriteString(" [")
			b.WriteString(f.Scalar(t.On))
			b.WriteString("]")
		}
	case *GroupBy:
		b.WriteString(t.Kind.String())
		if !t.GroupCols.Empty() {
			b.WriteString(" [")
			first := true
			t.GroupCols.ForEach(func(c ColID) {
				if !first {
					b.WriteString(", ")
				}
				b.WriteString(md.QualifiedAlias(c))
				first = false
			})
			b.WriteString("]")
		}
		if len(t.Aggs) > 0 {
			b.WriteString(" aggs:[")
			for i, a := range t.Aggs {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(md.Alias(a.Col))
				b.WriteString(":=")
				b.WriteString(f.formatAgg(a))
			}
			b.WriteString("]")
		}
	case *SegmentApply:
		b.WriteString("SegmentApply [")
		first := true
		t.SegmentCols.ForEach(func(c ColID) {
			if !first {
				b.WriteString(", ")
			}
			b.WriteString(md.QualifiedAlias(c))
			first = false
		})
		b.WriteString("]")
	case *SegmentRef:
		b.WriteString("SegmentRef")
	case *Max1Row:
		b.WriteString("Max1Row")
	case *UnionAll:
		b.WriteString("UnionAll")
	case *Difference:
		b.WriteString("ExceptAll")
	case *Values:
		fmt.Fprintf(b, "Values (%d rows)", len(t.Rows))
	case *Sort:
		b.WriteString("Sort [")
		for i, o := range t.By {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(md.QualifiedAlias(o.Col))
			if o.Desc {
				b.WriteString(" desc")
			}
		}
		b.WriteString("]")
	case *Top:
		fmt.Fprintf(b, "Top %d", t.N)
	case *RowNumber:
		b.WriteString("RowNumber [")
		b.WriteString(md.Alias(t.Col))
		b.WriteString("]")
	default:
		fmt.Fprintf(b, "%T", r)
	}
}

var joinNames = map[JoinKind]string{
	InnerJoin: "Join", CrossJoin: "CrossJoin", LeftOuterJoin: "LeftOuterJoin",
	SemiJoin: "SemiJoin", AntiSemiJoin: "AntiSemiJoin",
}

var applyNames = map[JoinKind]string{
	InnerJoin: "Apply", CrossJoin: "Apply", LeftOuterJoin: "ApplyOuter",
	SemiJoin: "ApplySemi", AntiSemiJoin: "ApplyAnti",
}

func (f *Formatter) formatAgg(a AggItem) string {
	name := a.Func.String()
	if a.Global {
		name += "_g"
	}
	if a.Func == AggCountStar {
		return name
	}
	arg := f.Scalar(a.Arg)
	if a.Distinct {
		arg = "distinct " + arg
	}
	return name + "(" + arg + ")"
}

// FormatScalar renders a scalar expression in SQL-ish syntax.
func FormatScalar(md *Metadata, s Scalar) string {
	f := Formatter{md: md}
	return f.Scalar(s)
}

// Scalar renders s as FormatScalar does, from the memo when the
// Formatter has one.
func (f *Formatter) Scalar(s Scalar) string {
	if s == nil {
		return "true"
	}
	if f.scalars != nil {
		if str, ok := f.scalars[s]; ok {
			return str
		}
	}
	str := f.scalar(s)
	if f.scalars != nil {
		f.scalars[s] = str
	}
	return str
}

func (f *Formatter) scalar(s Scalar) string {
	md := f.md
	switch t := s.(type) {
	case *ColRef:
		return md.QualifiedAlias(t.Col)
	case *Const:
		return t.Val.String()
	case *Param:
		// Value-free on purpose: FormatRel keys the optimizer memo and
		// the Simplify fixpoint, so two plans differing only in sniffed
		// parameter values must format identically.
		return fmt.Sprintf("$%d", t.Idx+1)
	case *Cmp:
		return fmt.Sprintf("%s %s %s", f.Scalar(t.L), t.Op, f.Scalar(t.R))
	case *And:
		parts := make([]string, len(t.Args))
		for i, a := range t.Args {
			parts[i] = f.Scalar(a)
		}
		if len(parts) == 0 {
			return "true"
		}
		return "(" + strings.Join(parts, " AND ") + ")"
	case *Or:
		parts := make([]string, len(t.Args))
		for i, a := range t.Args {
			parts[i] = f.Scalar(a)
		}
		if len(parts) == 0 {
			return "false"
		}
		return "(" + strings.Join(parts, " OR ") + ")"
	case *Not:
		return "NOT (" + f.Scalar(t.Arg) + ")"
	case *Arith:
		return fmt.Sprintf("(%s %s %s)", f.Scalar(t.L), t.Op, f.Scalar(t.R))
	case *IsNull:
		if t.Negate {
			return f.Scalar(t.Arg) + " IS NOT NULL"
		}
		return f.Scalar(t.Arg) + " IS NULL"
	case *Like:
		op := " LIKE "
		if t.Negate {
			op = " NOT LIKE "
		}
		return f.Scalar(t.L) + op + f.Scalar(t.R)
	case *InList:
		parts := make([]string, len(t.List))
		for i, a := range t.List {
			parts[i] = f.Scalar(a)
		}
		op := " IN ("
		if t.Negate {
			op = " NOT IN ("
		}
		return f.Scalar(t.Arg) + op + strings.Join(parts, ", ") + ")"
	case *Case:
		var b strings.Builder
		b.WriteString("CASE")
		for _, w := range t.Whens {
			fmt.Fprintf(&b, " WHEN %s THEN %s", f.Scalar(w.Cond), f.Scalar(w.Then))
		}
		if t.Else != nil {
			fmt.Fprintf(&b, " ELSE %s", f.Scalar(t.Else))
		}
		b.WriteString(" END")
		return b.String()
	case *Subquery:
		return "SUBQUERY(" + md.Alias(t.Col) + ")"
	case *Exists:
		if t.Negate {
			return "NOT EXISTS(...)"
		}
		return "EXISTS(...)"
	case *Quantified:
		q := "ANY"
		if t.All {
			q = "ALL"
		}
		return fmt.Sprintf("%s %s %s(...)", f.Scalar(t.Arg), t.Op, q)
	}
	return fmt.Sprintf("%T", s)
}
