package policy

import (
	"fmt"
	"sort"
	"strings"

	"sdx/internal/iputil"
	"sdx/internal/pkt"
)

// Rule is one prioritized entry of a classifier: packets satisfying Match
// are transformed by every action in Actions (empty Actions = drop).
type Rule struct {
	Match   pkt.Match
	Actions []pkt.Action
}

// IsDrop reports whether the rule discards matching packets.
func (r Rule) IsDrop() bool { return len(r.Actions) == 0 }

// String renders "match -> [a1, a2]" or "match -> drop".
func (r Rule) String() string {
	if r.IsDrop() {
		return r.Match.String() + " -> drop"
	}
	parts := make([]string, len(r.Actions))
	for i, a := range r.Actions {
		parts[i] = a.String()
	}
	return r.Match.String() + " -> [" + strings.Join(parts, ", ") + "]"
}

// Classifier is an ordered rule list with first-match-wins semantics.
// Classifiers produced by Compile are total: every packet matches some
// rule (the compiler appends wildcard drop rules as needed). A packet that
// matches no rule is dropped.
type Classifier []Rule

// Eval applies the classifier to a located packet, returning the set of
// output packets of the first matching rule (nil for drop or no match).
func (c Classifier) Eval(p pkt.Packet) []pkt.Packet {
	for _, r := range c {
		if r.Match.Matches(p) {
			out := make([]pkt.Packet, 0, len(r.Actions))
			for _, a := range r.Actions {
				q, _ := a.Apply(p)
				out = append(out, q)
			}
			return out
		}
	}
	return nil
}

// NumRules returns the total rule count, the data-plane-state metric of
// the paper's Figures 7 and 9.
func (c Classifier) NumRules() int { return len(c) }

// NumForwardingRules returns the number of non-drop rules.
func (c Classifier) NumForwardingRules() int {
	n := 0
	for _, r := range c {
		if !r.IsDrop() {
			n++
		}
	}
	return n
}

// String renders one rule per line, highest priority first.
func (c Classifier) String() string {
	var b strings.Builder
	for i, r := range c {
		fmt.Fprintf(&b, "%4d: %s\n", len(c)-i, r)
	}
	return b.String()
}

// Optimize removes unreachable rules: any rule whose match is covered by a
// single earlier rule can never be the first match. It also truncates
// everything after the first wildcard-match rule (nothing below a total
// rule is reachable). The result is semantically equivalent.
//
// Kept rules go into a pkt.CoverIndex, so each rule is checked only
// against the kept rules that could cover it, not against all of them.
// The index's chains live on the stack up to 32 rules, so the output is
// the only allocation of a small Optimize, the common case on the
// per-prefix fast path.
func (c Classifier) Optimize() Classifier {
	out := make(Classifier, 0, len(c))
	var buf [128]int32
	idx := pkt.NewCoverIndex(len(c), buf[:], func(id int32) *pkt.Match { return &out[id].Match })
	covered := false
	found := func(int32) bool { covered = true; return false }
	for i := range c {
		r := &c[i]
		idx.Find(&r.Match, found)
		if covered {
			covered = false
			continue
		}
		idx.Insert(&r.Match)
		out = append(out, *r)
		if r.Match.IsAll() {
			break
		}
	}
	return out
}

// parallelCompose returns the classifier for the parallel composition of
// two classifiers: each packet receives the union of the actions of its
// first match in c1 and its first match in c2. Both inputs must be total;
// the result is total. Pairs are emitted in lexicographic (i, j) order,
// which preserves first-match-wins for both inputs.
func parallelCompose(c1, c2 Classifier) Classifier {
	out := make(Classifier, 0, len(c1)+len(c2))
	for _, r1 := range c1 {
		for _, r2 := range c2 {
			m, ok := r1.Match.Intersect(r2.Match)
			if !ok {
				continue
			}
			out = append(out, Rule{Match: m, Actions: unionActions(r1.Actions, r2.Actions)})
		}
	}
	return out.Optimize()
}

// unionActions unions two action sets, deduplicating identical actions.
func unionActions(a, b []pkt.Action) []pkt.Action {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]pkt.Action, len(a), len(a)+len(b))
	copy(out, a)
outer:
	for _, x := range b {
		for _, y := range a {
			if x == y {
				continue outer
			}
		}
		out = append(out, x)
	}
	return out
}

// Then returns the classifier for "c1 then c2": each output packet of c1
// is fed through c2. Both inputs must be total; the result is total, and
// Then(Compile(a), Compile(b)) is rule-for-rule Compile(Seq(a, b)), so a
// caller composing one compiled classifier after several others compiles
// it once.
func Then(c1, c2 Classifier) Classifier {
	var out Classifier
	for _, r1 := range c1 {
		out = append(out, seqRule(r1, c2)...)
	}
	return out.Optimize()
}

// seqRule composes a single rule with a classifier. For a drop rule the
// region maps to drop. For a unicast rule, each downstream rule's match is
// back-projected through the action. Multicast rules compose each action
// separately and union the per-action results within the rule's region.
func seqRule(r1 Rule, c2 Classifier) Classifier {
	if r1.IsDrop() {
		return Classifier{r1}
	}
	if len(r1.Actions) == 1 {
		return seqSingle(r1.Match, r1.Actions[0], c2)
	}
	// Multicast: parallel-compose the per-action sequential results.
	acc := seqSingle(r1.Match, r1.Actions[0], c2)
	for _, a := range r1.Actions[1:] {
		acc = parallelCompose(acc, seqSingle(r1.Match, a, c2))
	}
	// Restrict to the rule's own region (parallelCompose keeps totality,
	// and each branch already intersects with r1.Match, so acc rules are
	// within the region except for the synthesized drop fall-throughs).
	return acc
}

// seqSingle composes region `m` + action `a` with classifier c2.
func seqSingle(m pkt.Match, a pkt.Action, c2 Classifier) Classifier {
	var out Classifier
	for _, r2 := range c2 {
		bp, ok := a.BackProject(r2.Match)
		if !ok {
			continue
		}
		inter, ok := m.Intersect(bp)
		if !ok {
			continue
		}
		if r2.IsDrop() {
			out = append(out, Rule{Match: inter})
			continue
		}
		acts := make([]pkt.Action, len(r2.Actions))
		for i, a2 := range r2.Actions {
			acts[i] = a.Then(a2)
		}
		out = append(out, Rule{Match: inter, Actions: acts})
	}
	return out
}

// ConcatDisjoint implements the paper's §4.3.1 "most SDX policies are
// disjoint" optimization: when every classifier's reachable rules carry a
// guard on the same exact-match field (in-port or destination MAC) and
// the guard values are pairwise disjoint across classifiers, their
// parallel composition is just concatenation — no cross-product.
//
// Each classifier may end with an unguarded drop suffix (the compiler's
// wildcard fall-through), which is stripped; a single wildcard drop is
// appended to keep the result total. The second result reports whether the
// precondition held for either guard field; on false the caller must fall
// back to the full parallel composition.
func ConcatDisjoint(cs ...Classifier) (Classifier, bool) {
	if out, ok := concatGuarded(cs, func(m pkt.Match) (uint64, bool) {
		p, ok := m.GetInPort()
		return uint64(p), ok
	}); ok {
		return out, true
	}
	if out, ok := concatGuarded(cs, func(m pkt.Match) (uint64, bool) {
		mac, ok := m.GetDstMAC()
		return uint64(mac), ok
	}); ok {
		return out, true
	}
	return concatDstIPGuarded(cs)
}

// concatDstIPGuarded is the prefix-guard variant: every reachable rule
// must carry a destination-IP prefix and the prefixes must be pairwise
// disjoint across classifiers (per-prefix rule sets, which are huge but
// trivially disjoint).
func concatDstIPGuarded(cs []Classifier) (Classifier, bool) {
	type guard struct {
		p   iputil.Prefix
		idx int
	}
	var guards []guard
	total := 0
	bodies := make([]Classifier, len(cs))
	for i, c := range cs {
		end := len(c)
		for end > 0 && c[end-1].IsDrop() {
			end--
		}
		body := c[:end]
		for _, r := range body {
			p, ok := r.Match.GetDstIP()
			if !ok {
				return nil, false
			}
			guards = append(guards, guard{p, i})
		}
		bodies[i] = body
		total += len(body)
	}
	// Cross-classifier guards must not overlap; same-classifier overlaps
	// are fine (first-match order is preserved by concatenation).
	sort.Slice(guards, func(i, j int) bool { return guards[i].p.Compare(guards[j].p) < 0 })
	for i := 1; i < len(guards); i++ {
		if guards[i-1].idx != guards[i].idx && guards[i-1].p.Overlaps(guards[i].p) {
			return nil, false
		}
	}
	out := make(Classifier, 0, total+1)
	for _, b := range bodies {
		out = append(out, b...)
	}
	out = append(out, Rule{Match: pkt.MatchAll})
	return out, true
}

func concatGuarded(cs []Classifier, guard func(pkt.Match) (uint64, bool)) (Classifier, bool) {
	seen := make(map[uint64]int) // guard value -> classifier index
	total := 0
	bodies := make([]Classifier, len(cs))
	for i, c := range cs {
		// Strip the trailing drop suffix.
		end := len(c)
		for end > 0 && c[end-1].IsDrop() {
			end--
		}
		body := c[:end]
		for _, r := range body {
			g, ok := guard(r.Match)
			if !ok {
				return nil, false
			}
			if j, dup := seen[g]; dup && j != i {
				return nil, false
			}
			seen[g] = i
		}
		bodies[i] = body
		total += len(body)
	}
	out := make(Classifier, 0, total+1)
	for _, b := range bodies {
		out = append(out, b...)
	}
	out = append(out, Rule{Match: pkt.MatchAll})
	return out, true
}
