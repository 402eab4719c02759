package opt

import (
	"slices"

	"orthoq/internal/algebra"
	"orthoq/internal/core"
	"orthoq/internal/sql/catalog"
	"orthoq/internal/stats"
)

// Canonical names of the cost-based transformation rules, used by
// Config.DisableRules, Result.Rules, and the rule-level equivalence
// harness. Normalization rules (the Apply-removal identities and
// outerjoin simplification) are named in internal/core.
const (
	RulePushGroupByBelowJoin      = "PushGroupByBelowJoin"
	RuleSplitGroupBy              = "SplitGroupBy"
	RulePushLocalGroupByBelowJoin = "PushLocalGroupByBelowJoin"
	RulePullGroupByAboveJoin      = "PullGroupByAboveJoin"
	RulePushSemiJoinBelowGroupBy  = "PushSemiJoinBelowGroupBy"
	RuleSemiJoinToJoinDistinct    = "SemiJoinToJoinDistinct"
	RuleIntroduceSegmentApply     = "IntroduceSegmentApply"
	RulePushJoinBelowSegmentApply = "PushJoinBelowSegmentApply"
	RuleCommuteJoin               = "CommuteJoin"
	RuleRotateJoin                = "RotateJoin"
	RuleJoinToApply               = "JoinToApply"
	RuleEliminateSort             = "EliminateSort"
	RuleMergeJoinOrder            = "MergeJoinOrder"
	RuleStreamAggOrder            = "StreamAggOrder"
)

// RuleNames lists every cost-based transformation rule.
func RuleNames() []string {
	return []string{
		RulePushGroupByBelowJoin, RuleSplitGroupBy, RulePushLocalGroupByBelowJoin,
		RulePullGroupByAboveJoin, RulePushSemiJoinBelowGroupBy, RuleSemiJoinToJoinDistinct,
		RuleIntroduceSegmentApply, RulePushJoinBelowSegmentApply,
		RuleCommuteJoin, RuleRotateJoin, RuleJoinToApply,
		RuleEliminateSort, RuleMergeJoinOrder, RuleStreamAggOrder,
	}
}

// Config selects which transformation rules the optimizer may use;
// disabling individual primitives implements the paper's ablations
// ("systems" axis of the benchmark harness).
type Config struct {
	// Norm is forwarded to normalization (decorrelation flags).
	Norm core.Options
	// DisableGroupByReorder turns off §3.1/3.2 GroupBy reordering.
	DisableGroupByReorder bool
	// DisableLocalAgg turns off §3.3 LocalGroupBy splitting/pushdown.
	DisableLocalAgg bool
	// DisableSegmentApply turns off §3.4 segmented execution.
	DisableSegmentApply bool
	// DisableJoinReorder turns off join commutativity/associativity.
	DisableJoinReorder bool
	// DisableCorrelatedReintro turns off rewriting joins back into
	// index-lookup Apply plans.
	DisableCorrelatedReintro bool
	// DisableOrderOpt turns off the order-property rules (sort
	// elimination via ordered indexes, merge-join and streaming-
	// aggregation enablement).
	DisableOrderOpt bool
	// DisableRules suppresses individual rules by canonical name (the
	// Rule* constants) — finer grained than the family flags above; the
	// rule-level equivalence harness disables one rule at a time and
	// checks result equivalence.
	DisableRules map[string]bool
	// MaxSteps caps best-first expansions (0 = default).
	MaxSteps int
}

func (c *Config) disabled(name string) bool { return c.DisableRules[name] }

// Optimizer explores the rule-generated plan space and returns the
// cheapest plan under the cost model.
type Optimizer struct {
	Md     *algebra.Metadata
	Cat    *catalog.Catalog
	Stats  *stats.Collection
	Config Config
}

// Result reports the chosen plan and search telemetry.
type Result struct {
	Plan     algebra.Rel
	Cost     float64
	Explored int
	// Rules is the sequence of rule applications that derived the
	// chosen plan from its seed (empty when the seed won unchanged).
	Rules []string
	// CapHit reports that the search stopped at MaxSteps with plans
	// still on the frontier, so the plan depends on the step budget.
	CapHit bool
}

type frontierItem struct {
	n    *node
	cost float64
	// path is the rewrite path from the seed to n.
	path *rulePath
}

// rulePath is a rewrite path as a parent-linked list: a candidate
// extends its parent plan's path by one rule without copying it.
type rulePath struct {
	rule   string
	parent *rulePath
}

// rules returns the path's rule names in application order.
func (p *rulePath) rules() []string {
	var out []string
	for q := p; q != nil; q = q.parent {
		out = append(out, q.rule)
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// frontier is a binary min-heap of plans by cost. Its sift order is
// container/heap's, so plans of equal cost pop in the same order, but
// items are stored unboxed.
type frontier []frontierItem

func (f *frontier) push(it frontierItem) {
	*f = append(*f, it)
	h := *f
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].cost < h[i].cost) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (f *frontier) pop() frontierItem {
	h := *f
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].cost < h[j].cost {
			j = j2
		}
		if !(h[j].cost < h[i].cost) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	*f = h[:n]
	return it
}

// candidate is one named single-rule rewrite.
type candidate struct {
	n    *node
	rule string
}

// Optimize runs best-first search from the normalized plan. Extra
// seeds (equivalent formulations, e.g. the correlated Apply form — the
// paper's §4 "introduction of correlated execution") join the frontier
// so the search considers every strategy family. The search state is a
// per-call memo (see memo): plans are deduplicated by interned class
// ID and costed incrementally, which keeps the search order — and so
// every chosen plan — exactly what whole-tree FormatRel keys and full
// re-costing would give.
func (o *Optimizer) Optimize(rel algebra.Rel, seeds ...algebra.Rel) *Result {
	maxSteps := o.Config.MaxSteps
	if maxSteps == 0 {
		maxSteps = 1200
	}
	m := newMemo(o.Md)
	c := &coster{md: o.Md, cat: o.Cat, st: o.Stats, m: m}
	var shadow *shadowCheck
	if report := shadowReport.Load(); report != nil {
		shadow = newShadowCheck(*report)
	}

	seen := seenSet{ids: map[int32]bool{}}
	var fr frontier
	push := func(n *node, rule string, parent *rulePath) {
		if shadow != nil {
			shadow.check(m, n)
		}
		if !seen.admit(m, n) {
			return
		}
		var path *rulePath
		if rule != "" {
			path = &rulePath{rule: rule, parent: parent}
		}
		fr.push(frontierItem{n: n, cost: c.costNode(n).cost, path: path})
	}
	root := m.node(rel)
	push(root, "", nil)
	for _, s := range seeds {
		push(m.node(s), "", nil)
	}

	best, bestCost := frontierItem{n: root}, c.costNode(root).cost
	steps := 0
	for len(fr) > 0 && steps < maxSteps {
		item := fr.pop()
		steps++
		if item.cost < bestCost {
			best, bestCost = item, item.cost
		}
		// Prune hopeless regions: anything an order of magnitude worse
		// than the incumbent rarely leads anywhere better.
		if item.cost > bestCost*12 {
			continue
		}
		for _, cand := range o.neighbors(m, item.n, shadow) {
			push(cand.n, cand.rule, item.path)
		}
	}
	return &Result{Plan: best.n.rel, Cost: bestCost, Explored: steps, Rules: best.path.rules(),
		CapHit: len(fr) > 0}
}

// neighbors generates all single-rule rewrites anywhere in n's
// subtree, tagged with the rule that produced them, in a fixed order:
// the rules at n, then each input's neighbors rebuilt into n. The set
// is cached on n: a popped plan shares every node off its new spine
// with the plan it came from, so a search step runs the rules only at
// the nodes it has not met before, and the rebuilt spine for a rewrite
// under an unchanged subtree is built once and shared by every plan
// containing it. The cache assumes a rule's output depends only on its
// node (the shadow check verifies it). A rule that allocates fresh
// columns — LocalGroupBy's partial aggregates, GroupBy's _pre columns,
// SegmentApply's clones — therefore runs once per node rather than
// once per visit; renderings compare aliases, not ColIDs, so
// deduplication and search order are unaffected, though the chosen
// plan may carry different ColIDs than an uncached search would give.
func (o *Optimizer) neighbors(m *memo, n *node, shadow *shadowCheck) []candidate {
	if n.have&haveNbrs != 0 {
		if shadow != nil {
			shadow.checkNeighbors(o, m, n)
		}
		return n.nbrs
	}
	out := o.rulesAt(m, n)
	var below [2][]candidate
	for i, child := range n.kids {
		below[i] = o.neighbors(m, child, shadow)
	}
	out = slices.Grow(out, len(below[0])+len(below[1]))
	for i, nbrs := range below[:len(n.kids)] {
		for _, nc := range nbrs {
			out = append(out, candidate{n: m.rebuilt(n, i, nc.n), rule: nc.rule})
		}
	}
	n.nbrs = out
	n.have |= haveNbrs
	return out
}

// rulesAt applies every enabled rule at the root of r.
func (o *Optimizer) rulesAt(m *memo, n *node) []candidate {
	var out []candidate
	add := func(rule string, nr algebra.Rel, ok bool) {
		if ok && nr != nil && !o.Config.disabled(rule) {
			out = append(out, candidate{n: m.node(nr), rule: rule})
		}
	}
	switch t := n.rel.(type) {
	case *algebra.GroupBy:
		if !o.Config.DisableGroupByReorder {
			nr, ok := core.TryPushGroupByBelowJoin(o.Md, t)
			add(RulePushGroupByBelowJoin, nr, ok)
		}
		if !o.Config.DisableLocalAgg {
			if t.Kind == algebra.VectorGroupBy {
				nr, ok := core.TrySplitGroupBy(o.Md, t)
				add(RuleSplitGroupBy, nr, ok)
			}
			if t.Kind == algebra.LocalGroupBy {
				nr, ok := core.TryPushLocalGroupByBelowJoin(o.Md, t)
				add(RulePushLocalGroupByBelowJoin, nr, ok)
			}
		}
		if !o.Config.DisableOrderOpt {
			nr, ok := tryStreamAggOrder(m, o.Cat, n)
			add(RuleStreamAggOrder, nr, ok)
		}
	case *algebra.Join:
		if !o.Config.DisableGroupByReorder {
			nr, ok := core.TryPullGroupByAboveJoin(o.Md, t)
			add(RulePullGroupByAboveJoin, nr, ok)
			nr, ok = core.TryPushSemiJoinBelowGroupBy(o.Md, t)
			add(RulePushSemiJoinBelowGroupBy, nr, ok)
			nr, ok = core.TrySemiJoinToJoinDistinct(o.Md, t)
			add(RuleSemiJoinToJoinDistinct, nr, ok)
		}
		if !o.Config.DisableSegmentApply {
			nr, ok := core.TryIntroduceSegmentApply(o.Md, t)
			add(RuleIntroduceSegmentApply, nr, ok)
			nr, ok = core.TryPushJoinBelowSegmentApply(o.Md, t)
			add(RulePushJoinBelowSegmentApply, nr, ok)
			// Composite Figure-6→Figure-7 step: introduce SegmentApply
			// at a child join and immediately push this join below it.
			// Without the composition, the intermediate whole-table
			// segmentation costs enough to be pruned before its good
			// successor is generated.
			for i, child := range t.Inputs() {
				cj, ok := child.(*algebra.Join)
				if !ok {
					continue
				}
				sa, ok := core.TryIntroduceSegmentApply(o.Md, cj)
				if !ok {
					continue
				}
				kids := []algebra.Rel{t.Left, t.Right}
				kids[i] = sa
				wrapped := t.WithInputs(kids).(*algebra.Join)
				nr, ok := core.TryPushJoinBelowSegmentApply(o.Md, wrapped)
				// The composite counts as both rules; gate on either
				// being disabled via add's check on the segment names.
				add(RulePushJoinBelowSegmentApply, nr,
					ok && !o.Config.disabled(RuleIntroduceSegmentApply))
			}
		}
		if !o.Config.DisableJoinReorder {
			nr, ok := commuteJoin(t)
			add(RuleCommuteJoin, nr, ok)
			nr, ok = rotateJoinRight(m, t)
			add(RuleRotateJoin, nr, ok)
			nr, ok = rotateJoinLeft(m, t)
			add(RuleRotateJoin, nr, ok)
		}
		if !o.Config.DisableCorrelatedReintro {
			nr, ok := joinToApply(m, o.Cat, n)
			add(RuleJoinToApply, nr, ok)
		}
		if !o.Config.DisableOrderOpt {
			nr, ok := tryMergeJoinOrder(m, o.Cat, n)
			add(RuleMergeJoinOrder, nr, ok)
		}
	case *algebra.Sort:
		if !o.Config.DisableOrderOpt {
			nr, ok := tryEliminateSort(m, o.Cat, n)
			add(RuleEliminateSort, nr, ok)
		}
	}
	return out
}
