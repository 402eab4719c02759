package opt

import (
	"encoding/binary"
	"math"
	"strings"

	"orthoq/internal/algebra"
)

// memo is the search state of one Optimize call. It interns plan
// nodes: every operator instance the search meets (keyed by pointer —
// rewrites rebuild only the spine above the node they change, so the
// rest of a candidate is shared with its parent plan) gets one node
// entry holding
//
//   - its class ID, keyed by (the node's own FormatRel line, its
//     inputs' class IDs): two trees get the same root ID exactly when
//     algebra.FormatRel renders them equally (see FormatRel's comment;
//     seenSet covers renderings with embedded newlines), so duplicate
//     detection costs one map lookup per new node instead of a
//     whole-tree string;
//   - its logical properties (output columns, outer references,
//     delivered order, join keys, the merge-join / streaming-agg
//     answers), each derived once from its inputs' cached ones;
//   - its cost estimate per coster context (see coster.ctx);
//   - its neighbor set: every single-rule rewrite of its subtree (see
//     Optimizer.neighbors), computed the first time the search pops a
//     plan containing it.
//
// Cached sets and orderings are shared and read-only: a caller that
// needs to modify one must Copy it first.
type memo struct {
	md    *algebra.Metadata
	f     *algebra.Formatter
	nodes map[algebra.Rel]*node
	// lines interns rendered FormatRel lines (IDs from 1); lineNL[id]
	// records that line id contains a newline.
	lines  map[string]int32
	lineNL []bool
	// classes maps (line ID, input class IDs) to a class ID (from 1).
	classes map[classKey]int32
	// ctxs maps a coster context key to its ID (the root context,
	// nothing bound and no segment, is 0).
	ctxs   map[string]int32
	keyBuf []byte
	// relBuf is rebuilt's WithInputs argument (WithInputs copies the
	// inputs it needs, so the buffer is reused).
	relBuf [2]algebra.Rel

	// Bound method values, created once (a method value allocates).
	outFn   func(algebra.Rel) algebra.ColSet
	outerFn func(algebra.Rel) algebra.ColSet
	orderFn func(algebra.Rel) []algebra.Ordering
}

// classKey identifies a FormatRel equivalence class: a node's own line
// ID and the class IDs of its (at most two) inputs, 0 where absent.
type classKey struct {
	line int32
	kids [2]int32
}

// node is one interned operator instance.
type node struct {
	rel  algebra.Rel
	kids []*node
	// id is the class ID, 0 until computed.
	id int32
	// line is the ID of the node's own FormatRel line, 0 until
	// rendered.
	line int32
	// estCtx is the context of est (when hasEst).
	estCtx int32
	have   propBits
	hasEst bool
	// newline records that this line or a descendant's contains a
	// newline, which makes line-wise interning inexact (see seenSet).
	newline bool

	out algebra.ColSet
	// est is the estimate in context estCtx (when hasEst); estimates
	// in further contexts (Apply inners reached from several scopes)
	// go to ext.ests.
	est estimate
	// nbrs is the neighbor set (when haveNbrs), shared by every plan
	// containing this node.
	nbrs []candidate
	// ext holds the properties only some nodes need, allocated on
	// first use to keep the common node small.
	ext *nodeExt
}

// nodeAlloc allocates a node together with room for its (at most two)
// input links, so interning a node costs one allocation.
type nodeAlloc struct {
	n    node
	kids [2]*node
}

func newNode(r algebra.Rel, nkids int) *node {
	a := &nodeAlloc{n: node{rel: r}}
	if nkids > 0 {
		a.n.kids = a.kids[:nkids:nkids]
	}
	return &a.n
}

type nodeExt struct {
	outer     algebra.ColSet
	sig       algebra.ColSet // Apply binding signature
	order     []algebra.Ordering
	lk, rk    []algebra.ColID // Join equality keys
	merge     bool            // Join streams as a merge join
	streamAgg bool            // GroupBy input is grouped
	ests      []ctxEstimate
}

func (n *node) x() *nodeExt {
	if n.ext == nil {
		n.ext = &nodeExt{}
	}
	return n.ext
}

type propBits uint8

const (
	haveOut propBits = 1 << iota
	haveOuter
	haveSig
	haveOrder
	haveKeys
	haveMerge
	haveStream
	haveNbrs
)

// ctxEstimate is a node's estimate in one coster context.
type ctxEstimate struct {
	ctx int32
	est estimate
}

func newMemo(md *algebra.Metadata) *memo {
	m := &memo{
		md:      md,
		f:       algebra.NewFormatter(md),
		nodes:   make(map[algebra.Rel]*node),
		lines:   make(map[string]int32),
		lineNL:  []bool{false},
		classes: make(map[classKey]int32),
		ctxs:    make(map[string]int32),
	}
	m.outFn = func(r algebra.Rel) algebra.ColSet { return m.outputCols(m.node(r)) }
	m.outerFn = func(r algebra.Rel) algebra.ColSet { return m.outerRefs(m.node(r)) }
	m.orderFn = func(r algebra.Rel) []algebra.Ordering { return m.delivered(m.node(r)) }
	m.f.ApplyBinds = func(a *algebra.Apply) algebra.ColSet { return m.applySig(m.node(a)) }
	m.ctxs[string(m.ctxKey(algebra.ColSet{}, 1))] = 0
	return m
}

// node returns r's entry, interning r and its inputs on first sight.
func (m *memo) node(r algebra.Rel) *node {
	if n, ok := m.nodes[r]; ok {
		return n
	}
	ins := r.Inputs()
	n := newNode(r, len(ins))
	for i, c := range ins {
		n.kids[i] = m.node(c)
	}
	m.nodes[r] = n
	return n
}

// rebuilt interns from.rel with input i replaced by kid (a
// WithInputs copy). The copy keeps from's own fields, so its line is
// from's — except an Apply's, whose binding list depends on its
// inputs.
func (m *memo) rebuilt(from *node, i int, kid *node) *node {
	rels := m.relBuf[:len(from.kids)]
	for k, kn := range from.kids {
		rels[k] = kn.rel
	}
	rels[i] = kid.rel
	n := newNode(from.rel.WithInputs(rels), len(from.kids))
	copy(n.kids, from.kids)
	n.kids[i] = kid
	if _, isApply := n.rel.(*algebra.Apply); !isApply {
		n.line = from.line
	}
	m.nodes[n.rel] = n
	return n
}

// id returns n's class ID: equal IDs ⇔ equal FormatRel renderings,
// provided no line in either tree contains a newline.
func (m *memo) id(n *node) int32 {
	if n.id != 0 {
		return n.id
	}
	var k classKey
	for i, c := range n.kids {
		k.kids[i] = m.id(c)
		n.newline = n.newline || c.newline
	}
	if n.line == 0 {
		n.line = m.lineID(m.f.Line(n.rel))
	}
	n.newline = n.newline || m.lineNL[n.line]
	k.line = n.line
	id, ok := m.classes[k]
	if !ok {
		id = int32(len(m.classes) + 1)
		m.classes[k] = id
	}
	n.id = id
	return id
}

// lineID interns a rendered line.
func (m *memo) lineID(line string) int32 {
	if id, ok := m.lines[line]; ok {
		return id
	}
	id := int32(len(m.lineNL))
	m.lines[line] = id
	m.lineNL = append(m.lineNL, strings.IndexByte(line, '\n') >= 0)
	return id
}

func (m *memo) outputCols(n *node) algebra.ColSet {
	if n.have&haveOut == 0 {
		n.out = algebra.DeriveOutputCols(n.rel, m.outFn)
		n.have |= haveOut
	}
	return n.out
}

func (m *memo) outerRefs(n *node) algebra.ColSet {
	if n.have&haveOuter == 0 {
		n.x().outer = algebra.DeriveOuterRefs(n.rel, m.outerFn, m.outFn)
		n.have |= haveOuter
	}
	return n.ext.outer
}

func (m *memo) delivered(n *node) []algebra.Ordering {
	if n.have&haveOrder == 0 {
		n.x().order = algebra.DeriveDeliveredOrder(n.rel, m.orderFn, m.outFn)
		n.have |= haveOrder
	}
	return n.ext.order
}

// applySig is an Apply's binding signature: the inner side's outer
// references that the left side produces (algebra.ApplyBindingCols'
// sig, and the "bind:" list FormatRel prints).
func (m *memo) applySig(n *node) algebra.ColSet {
	if n.have&haveSig == 0 {
		n.x().sig = m.outerRefs(n.kids[1]).Intersection(m.outputCols(n.kids[0]))
		n.have |= haveSig
	}
	return n.ext.sig
}

// joinKeys returns a Join's paired equality key columns
// (algebra.SplitJoinKeys over the inputs' cached output columns).
func (m *memo) joinKeys(n *node) (lk, rk []algebra.ColID) {
	if n.have&haveKeys == 0 {
		j := n.rel.(*algebra.Join)
		x := n.x()
		x.lk, x.rk, _ = algebra.SplitJoinKeys(j.On, m.outputCols(n.kids[0]), m.outputCols(n.kids[1]))
		n.have |= haveKeys
	}
	return n.ext.lk, n.ext.rk
}

// mergeJoin reports whether a Join node's inputs already deliver a
// covering key order (algebra.MergeKeysSorted).
func (m *memo) mergeJoin(n *node) bool {
	if n.have&haveMerge == 0 {
		lk, rk := m.joinKeys(n)
		n.ext.merge = algebra.MergeKeysSorted(m.delivered(n.kids[0]), m.delivered(n.kids[1]), lk, rk)
		n.have |= haveMerge
	}
	return n.ext.merge
}

// streamAgg reports algebra.StreamAggApplicable for a GroupBy node: its
// input's delivered order keeps every group contiguous.
func (m *memo) streamAgg(n *node) bool {
	if n.have&haveStream == 0 {
		n.x().streamAgg = algebra.GroupedBy(m.delivered(n.kids[0]), n.rel.(*algebra.GroupBy).GroupCols)
		n.have |= haveStream
	}
	return n.ext.streamAgg
}

// ctxKey renders a coster context — the bound column set and the
// innermost segment's row estimate — as a byte key.
func (m *memo) ctxKey(bound algebra.ColSet, seg float64) []byte {
	b := binary.LittleEndian.AppendUint64(m.keyBuf[:0], math.Float64bits(seg))
	bound.ForEach(func(c algebra.ColID) {
		b = binary.LittleEndian.AppendUint32(b, uint32(c))
	})
	m.keyBuf = b
	return b
}

// ctxID interns a coster context.
func (m *memo) ctxID(bound algebra.ColSet, seg float64) int32 {
	k := m.ctxKey(bound, seg)
	if id, ok := m.ctxs[string(k)]; ok {
		return id
	}
	id := int32(len(m.ctxs))
	m.ctxs[string(k)] = id
	return id
}

// seenSet is the search's duplicate filter. It admits a plan unless
// an earlier plan renders equally under algebra.FormatRel. Plans are
// compared by root class ID until some plan has a line containing a
// newline; from then on, renderings are compared as text (backfilled
// for the plans admitted so far), which keeps the equivalence exact.
type seenSet struct {
	ids   map[int32]bool
	roots []algebra.Rel
	texts map[string]bool
}

func (s *seenSet) admit(m *memo, n *node) bool {
	id := m.id(n)
	if s.texts == nil && !n.newline {
		if s.ids[id] {
			return false
		}
		s.ids[id] = true
		s.roots = append(s.roots, n.rel)
		return true
	}
	if s.texts == nil {
		s.texts = make(map[string]bool, len(s.roots)+1)
		for _, r := range s.roots {
			s.texts[algebra.FormatRel(m.md, r)] = true
		}
		s.roots = nil
	}
	key := algebra.FormatRel(m.md, n.rel)
	if s.texts[key] {
		return false
	}
	s.texts[key] = true
	return true
}
