// Package algebra defines the logical relational algebra used by the
// optimizer: relational operators (including the paper's Apply and
// SegmentApply), scalar expression trees, column metadata, and derived
// logical properties (output columns, outer references, keys,
// nullability).
//
// The representation follows Galindo-Legaria & Joshi (SIGMOD 2001):
// columns carry global IDs, correlation is visible as free column
// references, and all operators are bag-oriented.
package algebra

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// ColID identifies a column across the whole query. IDs are allocated
// by Metadata and never reused, so a column reference is unambiguous no
// matter where the expression tree is transplanted.
type ColID int

// ColSet is a set of column IDs: a bitset over the query's dense IDs
// (Metadata allocates them 1, 2, 3, ...), one bit per ID in 64-bit
// words. The zero value is the empty set.
//
// Aliasing: copying a ColSet value shares its words, so Add/Remove on
// one copy are visible through the other until either grows. Growth
// always allocates fresh words (never appends into spare capacity), so
// two copies can never clobber each other's high words. A set stored
// in a plan node or returned from a property cache is read-only; call
// Copy before mutating it.
type ColSet struct {
	words []uint64
}

// NewColSet builds a set from the given columns.
func NewColSet(cols ...ColID) ColSet {
	var s ColSet
	for _, c := range cols {
		s.Add(c)
	}
	return s
}

// grow makes room for n words, reallocating so no other ColSet value
// shares the new backing array.
func (s *ColSet) grow(n int) {
	if n <= len(s.words) {
		return
	}
	w := make([]uint64, n)
	copy(w, s.words)
	s.words = w
}

// Add inserts col.
func (s *ColSet) Add(col ColID) {
	if col < 0 {
		panic(fmt.Sprintf("algebra: negative column id %d", col))
	}
	i := int(col) >> 6
	s.grow(i + 1)
	s.words[i] |= 1 << (uint(col) & 63)
}

// Remove deletes col.
func (s *ColSet) Remove(col ColID) {
	if i := int(col) >> 6; col >= 0 && i < len(s.words) {
		s.words[i] &^= 1 << (uint(col) & 63)
	}
}

// Contains reports membership.
func (s ColSet) Contains(col ColID) bool {
	i := int(col) >> 6
	return col >= 0 && i < len(s.words) && s.words[i]&(1<<(uint(col)&63)) != 0
}

// Empty reports whether the set has no members.
func (s ColSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the cardinality.
func (s ColSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Copy returns an independent copy.
func (s ColSet) Copy() ColSet {
	if s.Empty() {
		return ColSet{}
	}
	return ColSet{words: append([]uint64(nil), s.words...)}
}

// UnionWith adds all members of o to s.
func (s *ColSet) UnionWith(o ColSet) {
	n := len(o.words)
	for n > 0 && o.words[n-1] == 0 {
		n--
	}
	s.grow(n)
	for i, w := range o.words[:n] {
		s.words[i] |= w
	}
}

// Union returns s ∪ o.
func (s ColSet) Union(o ColSet) ColSet {
	a, b := s.words, o.words
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return ColSet{}
	}
	w := make([]uint64, len(a))
	copy(w, a)
	for i, x := range b {
		w[i] |= x
	}
	return ColSet{words: w}
}

// DifferenceWith removes all members of o from s.
func (s *ColSet) DifferenceWith(o ColSet) {
	for i := range s.words {
		if i >= len(o.words) {
			break
		}
		s.words[i] &^= o.words[i]
	}
}

// Difference returns s \ o.
func (s ColSet) Difference(o ColSet) ColSet {
	r := s.Copy()
	r.DifferenceWith(o)
	return r
}

// Intersection returns s ∩ o.
func (s ColSet) Intersection(o ColSet) ColSet {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for n > 0 && s.words[n-1]&o.words[n-1] == 0 {
		n--
	}
	if n == 0 {
		return ColSet{}
	}
	w := make([]uint64, n)
	for i := range w {
		w[i] = s.words[i] & o.words[i]
	}
	return ColSet{words: w}
}

// Intersects reports whether the sets share a member.
func (s ColSet) Intersects(o ColSet) bool {
	for i, w := range s.words {
		if i >= len(o.words) {
			return false
		}
		if w&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports s ⊆ o.
func (s ColSet) SubsetOf(o ColSet) bool {
	for i, w := range s.words {
		var ow uint64
		if i < len(o.words) {
			ow = o.words[i]
		}
		if w&^ow != 0 {
			return false
		}
	}
	return true
}

// Equals reports set equality.
func (s ColSet) Equals(o ColSet) bool {
	a, b := s.words, o.words
	if len(a) < len(b) {
		a, b = b, a
	}
	for i, w := range a {
		var x uint64
		if i < len(b) {
			x = b[i]
		}
		if w != x {
			return false
		}
	}
	return true
}

// Ordered returns the members in ascending order.
func (s ColSet) Ordered() []ColID {
	out := make([]ColID, 0, s.Len())
	s.ForEach(func(c ColID) { out = append(out, c) })
	return out
}

// ForEach calls f for each member in ascending order. f must not
// modify s.
func (s ColSet) ForEach(f func(ColID)) {
	for i, w := range s.words {
		for w != 0 {
			f(ColID(i<<6 | bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// String renders the set as (1,2,3).
func (s ColSet) String() string {
	var b strings.Builder
	b.WriteByte('(')
	first := true
	s.ForEach(func(c ColID) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(int(c)))
	})
	b.WriteByte(')')
	return b.String()
}
