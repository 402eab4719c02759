package algebra

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// refSet is the map-based reference the bitset ColSet is checked
// against.
type refSet map[ColID]bool

func (r refSet) sorted() []ColID {
	out := make([]ColID, 0, len(r))
	for c := range r {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r refSet) clone() refSet {
	o := refSet{}
	for c := range r {
		o[c] = true
	}
	return o
}

func (r refSet) subsetOf(o refSet) bool {
	for c := range r {
		if !o[c] {
			return false
		}
	}
	return true
}

const maxTestCol = 300 // IDs 0..300 cross several 64-bit word boundaries

// randPair builds a ColSet and its reference with IDs capped at hi, so
// pairs drawn with different caps have different word lengths. Some
// members are removed again, leaving trailing zero words behind.
func randPair(rnd *rand.Rand, hi int) (ColSet, refSet) {
	var s ColSet
	r := refSet{}
	for i, n := 0, rnd.Intn(12); i < n; i++ {
		c := ColID(rnd.Intn(hi + 1))
		s.Add(c)
		r[c] = true
	}
	for i, n := 0, rnd.Intn(4); i < n; i++ {
		c := ColID(rnd.Intn(maxTestCol + 40)) // may lie past the last word
		s.Remove(c)
		delete(r, c)
	}
	return s, r
}

// checkSame compares every read-only method of s against r.
func checkSame(t *testing.T, what string, s ColSet, r refSet) {
	t.Helper()
	want := r.sorted()
	if got := s.Ordered(); !equalIDs(got, want) {
		t.Fatalf("%s: Ordered = %v, want %v", what, got, want)
	}
	var each []ColID
	s.ForEach(func(c ColID) { each = append(each, c) })
	if !equalIDs(each, want) {
		t.Fatalf("%s: ForEach order = %v, want %v", what, each, want)
	}
	if s.Len() != len(r) || s.Empty() != (len(r) == 0) {
		t.Fatalf("%s: Len/Empty = %d/%v, want %d", what, s.Len(), s.Empty(), len(r))
	}
	for c := ColID(-2); c <= maxTestCol+70; c++ {
		if s.Contains(c) != r[c] {
			t.Fatalf("%s: Contains(%d) = %v", what, c, s.Contains(c))
		}
	}
	parts := make([]string, len(want))
	for i, c := range want {
		parts[i] = strconv.Itoa(int(c))
	}
	if got := s.String(); got != "("+strings.Join(parts, ",")+")" {
		t.Fatalf("%s: String = %s", what, got)
	}
}

func equalIDs(a, b []ColID) bool {
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

// TestColSetMatchesMapReference is a differential property test of
// the bitset against a map-based set over random operation sequences.
func TestColSetMatchesMapReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	caps := []int{0, 63, 64, 127, 200, maxTestCol}
	for iter := 0; iter < 3000; iter++ {
		a, ra := randPair(rnd, caps[rnd.Intn(len(caps))])
		b, rb := randPair(rnd, caps[rnd.Intn(len(caps))])
		checkSame(t, "a", a, ra)
		checkSame(t, "b", b, rb)
		aBefore, bBefore := ra.clone(), rb.clone()

		// Pure operations.
		u := refSet{}
		d := refSet{}
		in := refSet{}
		for c := range ra {
			u[c] = true
			if rb[c] {
				in[c] = true
			} else {
				d[c] = true
			}
		}
		for c := range rb {
			u[c] = true
		}
		checkSame(t, "Union", a.Union(b), u)
		checkSame(t, "Difference", a.Difference(b), d)
		checkSame(t, "Intersection", a.Intersection(b), in)
		if a.Intersects(b) != (len(in) > 0) || b.Intersects(a) != (len(in) > 0) {
			t.Fatalf("Intersects(%v, %v) wrong", a, b)
		}
		if a.SubsetOf(b) != ra.subsetOf(rb) || b.SubsetOf(a) != rb.subsetOf(ra) {
			t.Fatalf("SubsetOf(%v, %v) wrong", a, b)
		}
		eq := ra.subsetOf(rb) && rb.subsetOf(ra)
		if a.Equals(b) != eq || b.Equals(a) != eq {
			t.Fatalf("Equals(%v, %v) = %v, want %v", a, b, a.Equals(b), eq)
		}
		// Pure operations leave their operands alone.
		checkSame(t, "a after pure ops", a, aBefore)
		checkSame(t, "b after pure ops", b, bBefore)

		// Copy is independent in both directions, including growth
		// past the copied words.
		c := a.Copy()
		extra := ColID(rnd.Intn(maxTestCol + 1))
		c.Add(extra)
		c.Add(maxTestCol + 60)
		checkSame(t, "a after mutating its copy", a, aBefore)
		if len(aBefore) > 0 {
			victim := aBefore.sorted()[0]
			c2 := a.Copy()
			c2.Remove(victim)
			checkSame(t, "a after removing from its copy", a, aBefore)
			a2 := a.Copy()
			a2.Remove(victim)
			if !c2.Equals(a2) {
				t.Fatalf("copies diverged")
			}
		}

		// In-place operations.
		uw := a.Copy()
		uw.UnionWith(b)
		checkSame(t, "UnionWith", uw, u)
		dw := a.Copy()
		dw.DifferenceWith(b)
		checkSame(t, "DifferenceWith", dw, d)
		checkSame(t, "b after in-place ops", b, bBefore)
	}
}

// TestColSetRemovePastEnd covers removal beyond the allocated words
// and of negative IDs, and the zero value.
func TestColSetRemovePastEnd(t *testing.T) {
	s := NewColSet(1, 70)
	s.Remove(5000)
	s.Remove(-1)
	var zero ColSet
	zero.Remove(3)
	if !s.Equals(NewColSet(70, 1)) || !zero.Empty() || zero.Contains(-1) {
		t.Fatalf("Remove past end: %v %v", s, zero)
	}
	s.Remove(70)
	if !s.Equals(NewColSet(1)) || s.Len() != 1 || !NewColSet(1).Equals(s) {
		t.Fatalf("trailing zero word breaks equality: %v", s)
	}
	if !zero.SubsetOf(s) || s.SubsetOf(zero) || !zero.Equals(ColSet{}) {
		t.Fatal("empty-set relations wrong")
	}
}
