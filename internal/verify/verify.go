// Package verify implements a semantic checker over compiled SDX
// classifiers and installed flow tables. It detects three defect classes:
//
//   - conflict: two rules at the same priority whose matches overlap but
//     whose action sets differ. On hardware that does not define a
//     tie-break, such a pair makes forwarding nondeterministic; even with
//     this repo's deterministic cookie/insertion tie-break it means two
//     bands disagree about the same traffic.
//   - shadow: a rule fully covered by a single higher-precedence rule of
//     the same band (cookie), and therefore unreachable. Cross-band
//     coverage is deliberately exempt — the fast band overlays stale
//     band-1/band-2 rules by design (§ "fast path" in DESIGN.md), so only
//     intra-band dead rules are compiler defects.
//   - trunk-gap: a member switch of a fabric.Topology missing the static
//     L2 trunk rule for some participant port, which would strand
//     in-transit traffic for that port on the switch.
//
// The checks are exact: overlap and coverage are decided by pkt.Match
// intersection (Match.Overlaps / Match.Covers), not sampling.
package verify

import (
	"fmt"
	"strings"

	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/fabric"
	"sdx/internal/pkt"
)

// Kind classifies a verifier finding.
type Kind string

const (
	// KindConflict marks equal-priority overlapping rules with divergent
	// actions (nondeterministic forwarding).
	KindConflict Kind = "conflict"
	// KindShadow marks a rule fully covered by a single higher-precedence
	// rule of the same cookie (unreachable rule).
	KindShadow Kind = "shadow"
	// KindTrunkGap marks a switch missing the trunk-band rule for a
	// participant port.
	KindTrunkGap Kind = "trunk-gap"
)

// Finding is one defect located by the verifier.
type Finding struct {
	Kind   Kind   `json:"kind"`
	Switch string `json:"switch,omitempty"` // fabric member, when applicable
	Rule   string `json:"rule"`             // the offending rule
	Other  string `json:"other,omitempty"`  // its counterpart (overlapping / covering rule)
	Detail string `json:"detail"`
}

// String renders "kind: detail: rule [vs other]".
func (f Finding) String() string {
	var b strings.Builder
	b.WriteString(string(f.Kind))
	if f.Switch != "" {
		fmt.Fprintf(&b, " [switch %s]", f.Switch)
	}
	b.WriteString(": ")
	b.WriteString(f.Detail)
	if f.Rule != "" {
		b.WriteString(": ")
		b.WriteString(f.Rule)
	}
	if f.Other != "" {
		b.WriteString(" vs ")
		b.WriteString(f.Other)
	}
	return b.String()
}

// Report aggregates the findings of one verification pass.
type Report struct {
	Rules    int       `json:"rules"` // entries examined
	Findings []Finding `json:"findings,omitempty"`
}

// OK reports whether the pass found no defects.
func (r *Report) OK() bool { return len(r.Findings) == 0 }

// Err returns nil for a clean report, or an error summarizing the
// findings (all of them, newline-separated) otherwise.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	lines := make([]string, len(r.Findings))
	for i, f := range r.Findings {
		lines[i] = f.String()
	}
	return fmt.Errorf("verify: %d finding(s) in %d rules:\n%s",
		len(r.Findings), r.Rules, strings.Join(lines, "\n"))
}

func (r *Report) add(f Finding) { r.Findings = append(r.Findings, f) }

func (r *Report) merge(o *Report) {
	r.Rules += o.Rules
	r.Findings = append(r.Findings, o.Findings...)
}

// Entries checks a rule set for conflicts and shadowing. The slice is
// not modified; precedence is computed with dataplane.OrderEntries
// semantics (priority descending, cookie ascending, given order last).
func Entries(es []*dataplane.FlowEntry) *Report {
	ordered := append([]*dataplane.FlowEntry(nil), es...)
	dataplane.OrderEntries(ordered)
	rep := &Report{Rules: len(ordered)}
	findConflicts(ordered, rep)
	findShadows(ordered, rep)
	return rep
}

// Table checks a live flow table's current contents.
func Table(t *dataplane.FlowTable) *Report { return Entries(t.Entries()) }

// Compiled checks one full compilation result, rendered as flow entries
// exactly as the controller would install them.
func Compiled(c *core.Compiled) *Report { return Entries(c.BandEntries()) }

// Fabric checks every member switch of a fabric: each table for conflicts
// and shadowing, and each for trunk-band coverage of every participant
// port in the topology.
func Fabric(f *fabric.Fabric, topo fabric.Topology) *Report {
	rep := &Report{}
	for _, name := range topo.Switches {
		sw := f.Switch(name)
		if sw == nil {
			rep.add(Finding{Kind: KindTrunkGap, Switch: name, Detail: "switch missing from fabric"})
			continue
		}
		es := sw.Table().Entries()
		r := Entries(es)
		for i := range r.Findings {
			r.Findings[i].Switch = name
		}
		rep.merge(r)
		for _, f := range TrunkCoverage(topo, name, es) {
			rep.add(f)
		}
	}
	return rep
}

// TrunkCoverage checks the static L2 trunk band of one member switch: for
// every participant port in the topology there must be a TrunkCookie rule
// matching the port's real MAC, with at least one action. A gap strands
// in-transit traffic toward that port on this switch.
func TrunkCoverage(topo fabric.Topology, name string, es []*dataplane.FlowEntry) []Finding {
	covered := make(map[pkt.MAC]bool)
	for _, e := range es {
		if e.Cookie != fabric.TrunkCookie || len(e.Actions) == 0 {
			continue
		}
		if mac, ok := e.Match.GetDstMAC(); ok {
			covered[mac] = true
		}
	}
	var out []Finding
	for port := range topo.Ports {
		if !covered[core.PortMAC(port)] {
			out = append(out, Finding{
				Kind:   KindTrunkGap,
				Switch: name,
				Detail: fmt.Sprintf("no trunk rule for participant port %d (dstMAC %s)", port, core.PortMAC(port)),
			})
		}
	}
	// Map iteration order is random; keep reports stable.
	sortFindings(out)
	return out
}

func sortFindings(fs []Finding) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].Detail < fs[j-1].Detail; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// findConflicts walks each equal-priority run of the ordered entries and
// flags overlapping pairs whose action sets differ.
func findConflicts(ordered []*dataplane.FlowEntry, rep *Report) {
	for lo := 0; lo < len(ordered); {
		hi := lo + 1
		for hi < len(ordered) && ordered[hi].Priority == ordered[lo].Priority {
			hi++
		}
		group := ordered[lo:hi]
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				if !group[i].Match.Overlaps(group[j].Match) {
					continue
				}
				if sameActions(group[i].Actions, group[j].Actions) {
					continue
				}
				rep.add(Finding{
					Kind:   KindConflict,
					Rule:   describe(group[i]),
					Other:  describe(group[j]),
					Detail: fmt.Sprintf("equal-priority overlap with divergent actions at priority %d", group[i].Priority),
				})
			}
		}
		lo = hi
	}
}

// findShadows flags entries fully covered by a single higher-precedence
// entry of the same cookie. Pairs at equal priority with divergent
// actions are already conflicts and are not double-reported. Each cookie
// keeps its earlier entries in a pkt.CoverIndex, so an entry is checked
// only against those that could cover it.
func findShadows(ordered []*dataplane.FlowEntry, rep *Report) {
	type band struct {
		prior []*dataplane.FlowEntry
		idx   pkt.CoverIndex
	}
	sizes := make(map[uint64]int)
	for _, e := range ordered {
		sizes[e.Cookie]++
	}
	bands := make(map[uint64]*band, len(sizes))
	for _, e := range ordered {
		b := bands[e.Cookie]
		if b == nil {
			b = &band{prior: make([]*dataplane.FlowEntry, 0, sizes[e.Cookie])}
			b.idx = pkt.NewCoverIndex(sizes[e.Cookie], nil, func(id int32) *pkt.Match { return &b.prior[id].Match })
			bands[e.Cookie] = b
		}
		b.idx.Find(&e.Match, func(id int32) bool {
			prev := b.prior[id]
			if prev.Priority == e.Priority && !sameActions(prev.Actions, e.Actions) {
				return true // reported as a conflict
			}
			rep.add(Finding{
				Kind:   KindShadow,
				Rule:   describe(e),
				Other:  describe(prev),
				Detail: "rule is unreachable: fully covered by a higher-precedence rule of the same band",
			})
			return false
		})
		b.idx.Insert(&e.Match)
		b.prior = append(b.prior, e)
	}
}

// sameActions compares action sets as unordered multisets: the dataplane
// applies every action of the winning entry, so ordering differences do
// not change forwarding behaviour.
func sameActions(a, b []pkt.Action) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	counts := make(map[pkt.Action]int, len(a))
	for _, x := range a {
		counts[x]++
	}
	for _, y := range b {
		counts[y]--
		if counts[y] < 0 {
			return false
		}
	}
	return true
}

func describe(e *dataplane.FlowEntry) string {
	return fmt.Sprintf("[cookie %d] %s", e.Cookie, e)
}
