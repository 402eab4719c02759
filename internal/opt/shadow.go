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
// returned func restores the previous setting. The check costs a
// whole-tree rendering per push, so it is for tests only.
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
