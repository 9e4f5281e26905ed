package core

import (
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/policy"
)

// compilePerPrefix is the per-prefix lowering: the §4 pipeline without
// the §4.2 VNH/VMAC grouping. Outbound terms match each eligible
// destination prefix instead of a group's VMAC, default forwarding is one
// rule per grouped prefix, and no VNH is allocated — the naive
// compilation whose rule explosion motivates the paper's multi-stage FIB.
// It forwards exactly as the grouped pipeline does, which makes it the
// differential corpus's independent reference.
func (c *compiler) compilePerPrefix() *Compiled {
	owners := c.setOwners()
	sets := c.materialize(owners)
	groups := MinDisjointSubsets(sets, func(p iputil.Prefix) uint32 { return peerAS(c.snap.GlobalBest(p)) })
	out := &Compiled{Groups: groups, GroupIdx: make(map[iputil.Prefix]int)}
	s2 := policy.Compile(c.stage2Policy())
	if head := c.perPrefixStage1(ownerIndex(owners), sets); head != nil {
		out.Band1 = finalizeBand(policy.Then(policy.Compile(head), s2))
	}
	if head := c.perPrefixDefaults(groups); head != nil {
		out.Band2 = finalizeBand(policy.Then(policy.Compile(head), s2))
	}
	return out
}

// perPrefixStage1 is stage1Policy with BGP consistency enforced by
// destination prefix: each BGP-checked term matches its in-ports crossed
// with every prefix of its input set.
func (c *compiler) perPrefixStage1(ownerIdx map[setOwner]int, sets [][]iputil.Prefix) policy.Policy {
	var perParticipant []policy.Policy
	for _, as := range sortedASNs(c.parts) {
		p := c.parts[as]
		var terms []policy.Policy
		for i, t := range p.outbound {
			if t.Action.Drop {
				terms = append(terms, policy.Seq(policy.Match(inPorts(p, t.Match)...), policy.FwdTo(PortDrop)))
				continue
			}
			target := c.parts[t.Action.ToParticipant]
			if target == nil {
				continue
			}
			if t.Action.NoBGPCheck {
				terms = append(terms, forwardTerm(inPorts(p, t.Match), t.Action.Mods, target.vport))
				continue
			}
			si, ok := ownerIdx[setOwner{as: as, term: i, target: t.Action.ToParticipant}]
			if !ok {
				continue
			}
			var ms []pkt.Match
			for _, m := range inPorts(p, t.Match) {
				for _, q := range sets[si] {
					ms = append(ms, m.DstIP(q))
				}
			}
			if len(ms) == 0 {
				continue
			}
			terms = append(terms, forwardTerm(ms, t.Action.Mods, target.vport))
		}
		if len(terms) > 0 {
			perParticipant = append(perParticipant, policy.Union(terms...))
		}
	}
	if len(perParticipant) == 0 {
		return nil
	}
	return policy.Union(perParticipant...)
}

// perPrefixDefaults is defaultPolicy with one dstip rule per prefix of
// each group instead of one VMAC rule per group.
func (c *compiler) perPrefixDefaults(groups []PrefixGroup) policy.Policy {
	var gpols []policy.Policy
	for gi := range groups {
		owner := c.parts[groups[gi].DefaultAS]
		if owner == nil {
			continue
		}
		for _, q := range groups[gi].Prefixes {
			gpols = append(gpols, policy.Seq(
				policy.Match(pkt.MatchAll.DstIP(q)),
				policy.FwdTo(owner.vport),
			))
		}
	}
	if len(gpols) == 0 {
		return nil
	}
	return policy.Union(gpols...)
}
