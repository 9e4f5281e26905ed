package core

import (
	"fmt"
	"strings"
	"sync"

	"sdx/internal/bgp"
	"sdx/internal/dataplane"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/policy"
	"sdx/internal/rs"
)

// RouteView is the route-server state the compiler reads. *rs.Server
// implements it. A full compile reads it through RouteSets alone, once;
// Exports and GlobalBest are the fast path's per-prefix probes.
type RouteView interface {
	// RouteSets materializes a batch of prefix sets, and the overall best
	// route of every prefix in them, from one pass over the Adj-RIB-In.
	RouteSets(queries []rs.SetQuery) *rs.RouteSets
	// Exports reports whether `via` exports prefix to `viewer`.
	Exports(viewer, via uint32, prefix iputil.Prefix) bool
	// GlobalBest returns the route server's overall best route for prefix.
	GlobalBest(prefix iputil.Prefix) *bgp.Route
}

// Compiled is the output of one full compilation pass.
type Compiled struct {
	// Band1 holds the composed custom-policy rules (highest priority
	// band); Band2 holds the per-group default forwarding rules. Traffic
	// matching neither falls through to the fabric's MAC-learning
	// fallback (real destination MACs only).
	Band1, Band2 policy.Classifier

	// Groups are the forwarding equivalence classes, with VMACs[i] and
	// VNHs[i] the tag pair assigned to Groups[i]. GroupIdx maps each
	// grouped prefix to its group index.
	Groups   []PrefixGroup
	VMACs    []pkt.MAC
	VNHs     []iputil.Addr
	GroupIdx map[iputil.Prefix]int
}

// NumRules returns the total installed rule count (the Figure 7 metric).
func (c *Compiled) NumRules() int { return len(c.Band1) + len(c.Band2) }

// BandEntries renders the compiled classifiers as flow entries exactly as
// the controller installs them on a full recompile: Band1 at its band base
// under its cookie, Band2 one band below under its own. The result is in
// table precedence order. The semantic verifier (internal/verify) uses this
// to check a compilation for conflicts and shadowing without a controller.
func (c *Compiled) BandEntries() []*dataplane.FlowEntry {
	es := dataplane.EntriesFromClassifier(c.Band1, band1Base, cookieBand1)
	return append(es, dataplane.EntriesFromClassifier(c.Band2, band2Base, cookieBand2)...)
}

// setOwner identifies the origin of one MDS input set: an outbound
// forwarding term (as, term, target), or — with as == 0 and term == -1 —
// the synthetic set covering a remote participant's announced prefixes,
// which must be grouped so the fabric can carry their traffic to the
// participant's virtual switch.
type setOwner struct {
	as     uint32
	term   int
	target uint32
}

// isSynthetic reports whether the set is a remote participant's synthetic
// announcement set rather than a policy term.
func (o setOwner) isSynthetic() bool { return o.term < 0 }

// groupKey is the stable identity of a group used to keep (VNH, VMAC)
// assignments consistent across recompilations: the owning terms plus the
// default next hop.
func groupKey(owners []setOwner, g *PrefixGroup) string {
	var b strings.Builder
	for _, si := range g.Sets {
		o := owners[si]
		fmt.Fprintf(&b, "%d/%d/%d;", o.as, o.term, o.target)
	}
	fmt.Fprintf(&b, "@%d", g.DefaultAS)
	return b.String()
}

// fastVNHBase splits the 20-bit VNH index space (VNHSubnet is a /12) in
// two: stable group indexes ascend from 1, transient fast-path indexes
// ascend from here. Keeping the pools disjoint makes full-recompile VNH
// assignment a pure function of the group-key history — how many fast
// compiles ran in between cannot shift indexFor's next allocation — which
// is what lets a coalesced burst and the same updates applied one at a
// time converge to byte-identical compiled output. vnhIndexes bounds the
// whole space.
const (
	fastVNHBase = 1 << 19
	vnhIndexes  = 1 << 20
)

// vnhTable persists (group key) -> allocation index across compilations.
type vnhTable struct {
	alloc    *vnhAllocator // stable group indexes: 1 .. fastVNHBase-1
	fastNext uint32        // next transient fast-path index: fastVNHBase .. vnhIndexes-1
	byKey    map[string]uint32
}

func newVNHTable() *vnhTable {
	return &vnhTable{
		alloc:    newVNHAllocator(),
		fastNext: fastVNHBase,
		byKey:    make(map[string]uint32),
	}
}

// indexFor returns the stable allocation index for a group key.
func (t *vnhTable) indexFor(key string) uint32 {
	if i, ok := t.byKey[key]; ok {
		return i
	}
	vnh, _ := t.alloc.Alloc()
	i := uint32(vnh - VNHSubnet.Addr())
	t.byKey[key] = i
	return i
}

// fresh returns a transient allocation index (fast-path per-prefix VNHs)
// from the dedicated fast pool. Fast VNHs are garbage-collected with the
// fast band at every full recompilation; the pool's 2^19 indexes are
// drawn in order and cycle, so an index comes back only after 2^19 fast
// compiles and never lands on a stable group index.
func (t *vnhTable) fresh() uint32 {
	i := t.fastNext
	t.fastNext++
	if t.fastNext == vnhIndexes {
		t.fastNext = fastVNHBase
	}
	return i
}

// compiler performs the §4 pipeline over a participant snapshot.
type compiler struct {
	parts map[uint32]*Participant
	view  RouteView
	vnhs  *vnhTable

	// snap is this compiler's one reading of the Adj-RIB-In (materialize):
	// it lives as long as the compiler does — one full pass, or one
	// fast-path batch, both under the controller's lock, so the RIB cannot
	// move beneath it — and nothing of it is kept afterwards. deliverable
	// is its tail: per participant, the prefixes resolveOwner searches.
	snap        *rs.RouteSets
	deliverable [][]iputil.Prefix
}

// setOwners enumerates the MDS input sets in deterministic order: one per
// outbound forwarding term subject to BGP consistency (pass 1 of §4.2),
// plus one synthetic set per remote (port-less) participant.
func (c *compiler) setOwners() []setOwner {
	var owners []setOwner
	for _, as := range sortedASNs(c.parts) {
		p := c.parts[as]
		for i, t := range p.outbound {
			if t.Action.ToParticipant == 0 || t.Action.NoBGPCheck {
				continue // drop and middlebox terms need no BGP restriction
			}
			owners = append(owners, setOwner{as: as, term: i, target: t.Action.ToParticipant})
		}
	}
	for _, as := range sortedASNs(c.parts) {
		p := c.parts[as]
		// Remote participants need their announced prefixes grouped so
		// the fabric can reach their virtual switch at all; participants
		// with inbound policies need them grouped so inbound traffic
		// traverses their virtual switch instead of the layer-2 fallback.
		if len(p.cfg.Ports) == 0 || len(p.inbound) > 0 {
			owners = append(owners, setOwner{as: 0, term: -1, target: as})
		}
	}
	return owners
}

// materialize asks the route view, in one call, for everything this
// compiler reads in bulk: one set per owner (returned, already narrowed by
// each term's dstip match) and, when some inbound term delivers by
// rewritten destination, every participant's prefixes for resolveOwner.
func (c *compiler) materialize(owners []setOwner) [][]iputil.Prefix {
	queries := make([]rs.SetQuery, len(owners))
	for i, o := range owners {
		if o.isSynthetic() {
			queries[i] = rs.SetQuery{Via: o.target, Announced: true}
		} else {
			queries[i] = rs.SetQuery{Viewer: o.as, Via: o.target}
		}
	}
	if c.delivers() {
		for _, as := range sortedASNs(c.parts) {
			queries = append(queries, rs.SetQuery{Via: as})
		}
	}
	c.snap = c.view.RouteSets(queries)
	sets := c.snap.Sets[:len(owners):len(owners)]
	c.deliverable = c.snap.Sets[len(owners):]
	for i, o := range owners {
		if o.isSynthetic() {
			continue
		}
		if dp, ok := c.parts[o.as].outbound[o.term].Match.GetDstIP(); ok {
			filtered := sets[i][:0]
			for _, q := range sets[i] {
				if q.Overlaps(dp) {
					filtered = append(filtered, q)
				}
			}
			sets[i] = filtered
		}
	}
	return sets
}

// delivers reports whether any inbound term needs resolveOwner.
func (c *compiler) delivers() bool {
	for _, p := range c.parts {
		for _, t := range p.inbound {
			if t.Action.Deliver {
				return true
			}
		}
	}
	return false
}

// setContains probes one prefix's membership in one input set without
// materializing it (the fast path's membership query).
func (c *compiler) setContains(o setOwner, prefix iputil.Prefix) bool {
	if o.isSynthetic() {
		return c.view.Exports(0, o.target, prefix)
	}
	t := c.parts[o.as].outbound[o.term]
	if !c.view.Exports(o.as, o.target, prefix) {
		return false
	}
	if dp, ok := t.Match.GetDstIP(); ok && !prefix.Overlaps(dp) {
		return false
	}
	return true
}

// peerAS is the next-hop AS of a best route (0 = no route).
func peerAS(r *bgp.Route) uint32 {
	if r == nil {
		return 0
	}
	return r.PeerAS
}

// group runs the route-dependent front half of the pipeline: policy sets
// and default next hops from one Adj-RIB-In reading, FEC grouping, and
// VNH assignment strictly in group order. setGroups[si] lists the groups
// making up input set si.
func (c *compiler) group() (out *Compiled, owners []setOwner, setGroups [][]int) {
	owners = c.setOwners()
	sets := c.materialize(owners)
	groups := MinDisjointSubsets(sets, func(p iputil.Prefix) uint32 { return peerAS(c.snap.GlobalBest(p)) })
	out = &Compiled{
		Groups:   groups,
		VMACs:    make([]pkt.MAC, len(groups)),
		VNHs:     make([]iputil.Addr, len(groups)),
		GroupIdx: make(map[iputil.Prefix]int),
	}
	for gi := range groups {
		idx := c.vnhs.indexFor(groupKey(owners, &groups[gi]))
		out.VMACs[gi] = VMAC(idx)
		out.VNHs[gi] = VNHAddr(idx)
		for _, p := range groups[gi].Prefixes {
			out.GroupIdx[p] = gi
		}
	}
	setGroups = make([][]int, len(sets))
	for gi := range groups {
		for _, si := range groups[gi].Sets {
			setGroups[si] = append(setGroups[si], gi)
		}
	}
	return out, owners, setGroups
}

// Compile runs the full pipeline: policy sets, FEC grouping, VNH
// assignment, the four policy transformations, and classifier generation.
// Stage 2 and the two band heads compile concurrently.
func (c *compiler) Compile() *Compiled {
	out, owners, setGroups := c.group()
	c.assemble(out, owners, setGroups, true)
	return out
}

// assemble compiles the two bands of out, the one band assembly of the
// full and fast compilers: Band1 = stage1 >> stage2 over the
// input sets and Band2 = defaults >> stage2 over out's groups (§4.1). The
// stage-2 classifier both bands share is compiled once per pass and
// composed after each head with policy.Then. A band without a head stays
// empty. With concurrent set, stage 2 and the two heads compile on their
// own goroutines, each band composing as soon as its head and stage 2
// are ready, and assemble returns once all three are joined.
func (c *compiler) assemble(out *Compiled, owners []setOwner, setGroups [][]int, concurrent bool) {
	stage1 := c.stage1Policy(ownerIndex(owners), setGroups, out.VMACs)
	defaults := c.defaultPolicy(out.Groups, out.VMACs)
	if stage1 == nil && defaults == nil {
		return
	}
	var wg sync.WaitGroup
	run := func(f func()) {
		if !concurrent {
			f()
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	var s2 policy.Classifier
	s2ready := make(chan struct{})
	run(func() {
		defer close(s2ready)
		s2 = policy.Compile(c.stage2Policy())
	})
	band := func(head policy.Policy, dst *policy.Classifier) {
		if head == nil {
			return
		}
		run(func() {
			h := policy.Compile(head)
			<-s2ready
			*dst = finalizeBand(policy.Then(h, s2))
		})
	}
	band(stage1, &out.Band1)
	band(defaults, &out.Band2)
	wg.Wait()
}

// ownerIndex maps each set owner back to its set index.
func ownerIndex(owners []setOwner) map[setOwner]int {
	idx := make(map[setOwner]int, len(owners))
	for i, o := range owners {
		idx[o] = i
	}
	return idx
}

// stage1Policy builds the union of every participant's isolated,
// BGP-augmented outbound policy (§4.1 transformations 1–2), or nil when no
// participant has outbound terms.
func (c *compiler) stage1Policy(ownerIdx map[setOwner]int, setGroups [][]int, vmacs []pkt.MAC) policy.Policy {
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
				// Middlebox redirection (§2): no BGP restriction, no
				// VMAC constraint — just isolation by in-port.
				terms = append(terms, forwardTerm(inPorts(p, t.Match), t.Action.Mods, target.vport))
				continue
			}
			si, ok := ownerIdx[setOwner{as: as, term: i, target: t.Action.ToParticipant}]
			if !ok {
				continue
			}
			// Isolation: guard by the participant's physical in-ports.
			// BGP consistency: restrict to the eligible groups' VMACs.
			var ms []pkt.Match
			for _, pp := range p.cfg.Ports {
				for _, gi := range setGroups[si] {
					ms = append(ms, t.Match.InPort(pp.ID).DstMAC(vmacs[gi]))
				}
			}
			if len(ms) == 0 {
				continue // no eligible prefixes: the term never applies
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

// inPorts guards m by each of p's physical in-ports (isolation).
func inPorts(p *Participant, m pkt.Match) []pkt.Match {
	ms := make([]pkt.Match, 0, len(p.cfg.Ports))
	for _, pp := range p.cfg.Ports {
		ms = append(ms, m.InPort(pp.ID))
	}
	return ms
}

// forwardTerm is one outbound term: match any of ms, apply mods, forward
// to out.
func forwardTerm(ms []pkt.Match, mods pkt.Mods, out pkt.PortID) policy.Policy {
	seq := []policy.Policy{policy.Match(ms...)}
	if !mods.IsEmpty() {
		seq = append(seq, policy.Modify(mods))
	}
	return policy.Seq(append(seq, policy.FwdTo(out))...)
}

// stage2Policy builds the union of every participant's virtual-switch
// ingress handling: custom inbound terms with fall-through to default
// delivery on the primary port (§4.1 transformation 3, receiver side).
func (c *compiler) stage2Policy() policy.Policy {
	var perParticipant []policy.Policy
	for _, as := range sortedASNs(c.parts) {
		perParticipant = append(perParticipant, c.inboundPolicy(c.parts[as]))
	}
	// The drop sink preserves explicit stage-1 drops (fwd(PortDrop))
	// through the composition, so finalizeBand can tell policy drops
	// apart from unhandled flow space.
	perParticipant = append(perParticipant, policy.Seq(
		policy.Match(pkt.MatchAll.InPort(PortDrop)),
		policy.FwdTo(PortDrop),
	))
	return policy.Union(perParticipant...)
}

func (c *compiler) inboundPolicy(p *Participant) policy.Policy {
	guard := pkt.MatchAll.InPort(p.vport)

	var def policy.Policy
	if primary, ok := p.PrimaryPort(); ok {
		def = policy.Seq(
			policy.Match(guard),
			policy.Modify(pkt.NoMods.SetDstMAC(primary.MAC())),
			policy.FwdTo(primary.ID),
		)
	} else {
		// Remote participants have no delivery port; unmatched traffic
		// addressed to them is explicitly dropped.
		def = policy.Seq(policy.Match(guard), policy.FwdTo(PortDrop))
	}
	if len(p.inbound) == 0 {
		return def
	}

	var terms []policy.Policy
	var pred []pkt.Match
	for _, t := range p.inbound {
		m := t.Match.InPort(p.vport)
		pred = append(pred, m)
		switch {
		case t.Action.Drop:
			terms = append(terms, policy.Seq(policy.Match(m), policy.FwdTo(PortDrop)))
		case t.Action.ToPort != 0:
			mods := t.Action.Mods.SetDstMAC(PortMAC(t.Action.ToPort))
			terms = append(terms, policy.Seq(policy.Match(m), policy.Modify(mods), policy.FwdTo(t.Action.ToPort)))
		case t.Action.Deliver:
			terms = append(terms, c.deliverTerm(m, t.Action.Mods))
		}
	}
	return policy.IfThenElse(policy.Match(pred...), policy.Union(terms...), def)
}

// deliverTerm resolves a rewrite-and-deliver term (wide-area load
// balancing, §5.2): the rewritten destination IP is resolved against the
// route server's best routes at compile time and the traffic is delivered
// to the owning participant's primary port.
func (c *compiler) deliverTerm(m pkt.Match, mods pkt.Mods) policy.Policy {
	dst, ok := mods.GetDstIP()
	if !ok {
		return policy.Seq(policy.Match(m), policy.FwdTo(PortDrop))
	}
	target := c.resolveOwner(dst)
	if target == nil {
		return policy.Seq(policy.Match(m), policy.FwdTo(PortDrop))
	}
	primary, ok := target.PrimaryPort()
	if !ok {
		return policy.Seq(policy.Match(m), policy.FwdTo(PortDrop))
	}
	return policy.Seq(
		policy.Match(m),
		policy.Modify(mods.SetDstMAC(primary.MAC())),
		policy.FwdTo(primary.ID),
	)
}

// resolveOwner finds the participant that the route server would deliver
// traffic for addr to (longest announced prefix containing addr). On the
// fast path no full compile has read the RIB for it, so it does, once per
// batch.
func (c *compiler) resolveOwner(addr iputil.Addr) *Participant {
	if c.snap == nil {
		c.materialize(nil)
	}
	var best *bgp.Route
	bestBits := -1
	for _, set := range c.deliverable {
		for _, q := range set {
			if q.Contains(addr) && int(q.Bits()) > bestBits {
				if r := c.snap.GlobalBest(q); r != nil {
					best, bestBits = r, int(q.Bits())
				}
			}
		}
	}
	if best == nil {
		return nil
	}
	return c.parts[best.PeerAS]
}

// defaultPolicy builds the per-group default forwarding band (§4.1
// transformation 3, sender side): traffic tagged with a group's VMAC is
// forwarded to the group's default next-hop participant. It is nil when no
// group has a usable next hop.
func (c *compiler) defaultPolicy(groups []PrefixGroup, vmacs []pkt.MAC) policy.Policy {
	var gpols []policy.Policy
	for gi := range groups {
		owner := c.parts[groups[gi].DefaultAS]
		if owner == nil {
			continue
		}
		gpols = append(gpols, policy.Seq(
			policy.Match(pkt.MatchAll.DstMAC(vmacs[gi])),
			policy.FwdTo(owner.vport),
		))
	}
	if len(gpols) == 0 {
		return nil
	}
	return policy.Union(gpols...)
}

// finalizeBand post-processes a composed classifier for installation:
// implicit drop rules (unhandled flow space) are stripped so that lower
// bands apply, while explicit drops (PortDrop outputs from drop policies)
// become real drop rules.
func finalizeBand(c policy.Classifier) policy.Classifier {
	out := make(policy.Classifier, 0, len(c))
	for _, r := range c {
		if r.IsDrop() {
			continue
		}
		var acts []pkt.Action
		explicitDrop := false
		for _, a := range r.Actions {
			if a.Out == PortDrop {
				explicitDrop = true
				continue
			}
			acts = append(acts, a)
		}
		switch {
		case len(acts) > 0:
			out = append(out, policy.Rule{Match: r.Match, Actions: acts})
		case explicitDrop:
			out = append(out, policy.Rule{Match: r.Match})
		}
	}
	return out
}

// fastGroup builds the single-prefix group used by the two-stage update
// path (§4.3.2): membership is probed per policy set without recomputing
// the full MDS.
func (c *compiler) fastGroup(prefix iputil.Prefix) (PrefixGroup, []setOwner) {
	g := PrefixGroup{Prefixes: []iputil.Prefix{prefix}, DefaultAS: peerAS(c.view.GlobalBest(prefix))}
	owners := c.setOwners()
	for si, o := range owners {
		if c.setContains(o, prefix) {
			g.Sets = append(g.Sets, si)
		}
	}
	return g, owners
}

// CompileFast runs the fast incremental path for one prefix: it assigns a
// fresh VNH and compiles only the rules related to the prefix, composed
// against the full stage-2 policy. The caller installs the result in the
// high-priority fast band.
func (c *compiler) CompileFast(prefix iputil.Prefix) *Compiled {
	g, owners := c.fastGroup(prefix)
	idx := c.vnhs.fresh()
	out := &Compiled{
		Groups:   []PrefixGroup{g},
		VMACs:    []pkt.MAC{VMAC(idx)},
		VNHs:     []iputil.Addr{VNHAddr(idx)},
		GroupIdx: map[iputil.Prefix]int{prefix: 0},
	}
	// Set si holds the (single) group iff si ∈ g.Sets.
	setGroups := make([][]int, len(owners))
	for _, si := range g.Sets {
		setGroups[si] = []int{0}
	}
	c.assemble(out, owners, setGroups, false)
	return out
}
