package opt

import (
	"fmt"
	"sync/atomic"

	"orthoq/internal/algebra"
)

// shadowReport, when set, receives the violations a test-only
// cross-check of the memo's interning against FormatRel finds.
var shadowReport atomic.Pointer[func(msg string)]

// SetShadowCheck installs a test-only cross-check of the search's
// duplicate detection: every plan Optimize pushes is also rendered
// with algebra.FormatRel, and within each Optimize call two pushed
// plans must get the same interned class ID exactly when their
// renderings are equal. Each violation is passed to report, which must
// be safe for concurrent use. A nil report turns the check off. The
// returned func restores the previous setting.
//
// The check also covers the neighbor-set cache (see
// Optimizer.neighbors): each time a node's cached neighbor set is
// reused, it is recomputed from scratch in a fresh memo, and the two
// must list the same (rule, FormatRel rendering) sequence. The check
// costs a whole-tree rendering per push and per reused candidate, so
// it is for tests only.
func SetShadowCheck(report func(msg string)) (restore func()) {
	var p *func(string)
	if report != nil {
		p = &report
	}
	prev := shadowReport.Swap(p)
	return func() { shadowReport.Store(prev) }
}

// shadowCheck is one Optimize call's record of pushed plans, by
// rendering and by class ID.
type shadowCheck struct {
	report func(string)
	byText map[string]int32
	byID   map[int32]string
}

func newShadowCheck(report func(string)) *shadowCheck {
	return &shadowCheck{report: report, byText: map[string]int32{}, byID: map[int32]string{}}
}

func (s *shadowCheck) check(m *memo, n *node) {
	id := m.id(n)
	text := algebra.FormatRel(m.md, n.rel)
	if prev, ok := s.byText[text]; ok && prev != id {
		s.report(fmt.Sprintf("equal renderings got class IDs %d and %d:\n%s", prev, id, text))
	}
	if prev, ok := s.byID[id]; ok && prev != text {
		s.report(fmt.Sprintf("class ID %d covers two renderings:\n%s---\n%s", id, prev, text))
	}
	s.byText[text], s.byID[id] = id, text
}

// checkNeighbors recomputes n's neighbor set in a fresh memo, so no
// cached property or neighbor set is reused, and reports any
// difference from the cached set.
func (s *shadowCheck) checkNeighbors(o *Optimizer, m *memo, n *node) {
	fresh := newMemo(m.md)
	want := o.neighbors(fresh, fresh.node(n.rel), nil)
	got := n.nbrs
	if len(got) != len(want) {
		s.report(fmt.Sprintf("cached neighbor set has %d rewrites, recomputed has %d, for:\n%s",
			len(got), len(want), algebra.FormatRel(m.md, n.rel)))
		return
	}
	for i := range got {
		g, w := algebra.FormatRel(m.md, got[i].n.rel), algebra.FormatRel(m.md, want[i].n.rel)
		if got[i].rule != want[i].rule || g != w {
			s.report(fmt.Sprintf("neighbor %d differs from its recomputation: cached %s\n%s---\nrecomputed %s\n%s",
				i, got[i].rule, g, want[i].rule, w))
		}
	}
}
