package core_test

import (
	"testing"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/router"
	"sdx/internal/rs"
)

// The Figure 1 topology: AS A (port 1), AS B (ports 2 and 3), AS C
// (port 4), plus a policy-less AS Z (port 6) announcing p5 so that one
// prefix retains pure default behaviour, as in the paper's example. B
// withholds p4 from A. Defaults: p1, p2, p4 via C; p3 via B; p5 via Z.
type fig1 struct {
	ctrl            *core.Controller
	a, b1, b2, c, z *router.BorderRouter
	p1, p2, p3, p4  iputil.Prefix
	p5              iputil.Prefix
}

const (
	asA = 100
	asB = 200
	asC = 300
	asZ = 600
)

func pfx(s string) iputil.Prefix { return iputil.MustParsePrefix(s) }
func ip(s string) iputil.Addr    { return iputil.MustParseAddr(s) }

func newFig1(t *testing.T) *fig1 {
	t.Helper()
	f := &fig1{
		p1: pfx("11.0.0.0/8"), p2: pfx("12.0.0.0/8"), p3: pfx("13.0.0.0/8"),
		p4: pfx("14.0.0.0/8"), p5: pfx("15.0.0.0/8"),
	}
	f.ctrl = core.NewController()

	mustAdd := func(cfg core.ParticipantConfig) {
		t.Helper()
		if _, err := f.ctrl.AddParticipant(cfg); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(core.ParticipantConfig{AS: asA, Name: "A", Ports: []core.PhysicalPort{{ID: 1}}})
	mustAdd(core.ParticipantConfig{AS: asB, Name: "B", Ports: []core.PhysicalPort{{ID: 2}, {ID: 3}},
		Export: &rs.ExportPolicy{DenyTo: map[uint32][]iputil.Prefix{asA: {f.p4}}}})
	mustAdd(core.ParticipantConfig{AS: asC, Name: "C", Ports: []core.PhysicalPort{{ID: 4}}})
	mustAdd(core.ParticipantConfig{AS: asZ, Name: "Z", Ports: []core.PhysicalPort{{ID: 6}}})

	attach := func(as uint32, port pkt.PortID) *router.BorderRouter {
		t.Helper()
		r, err := router.Attach(f.ctrl, as, core.PhysicalPort{ID: port})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	f.a = attach(asA, 1)
	f.b1 = attach(asB, 2)
	f.b2 = attach(asB, 3)
	f.c = attach(asC, 4)
	f.z = attach(asZ, 6)

	// Announcements (paths chosen so global defaults match the paper).
	for _, p := range []iputil.Prefix{f.p1, f.p2, f.p4} {
		f.b1.Announce(p, asB, 900, 901)
		f.c.Announce(p, asC)
	}
	f.b1.Announce(f.p3, asB)
	f.c.Announce(f.p3, asC, 900)
	f.z.Announce(f.p5, asZ)
	return f
}

// setFig1Policies installs the §3.1 application-specific peering policy:
// A sends web via B and https via C.
func (f *fig1) setFig1Policies(t *testing.T) core.CompileReport {
	t.Helper()
	rep := f.ctrl.Recompile(core.CompilePolicy(asA, nil, []core.Term{
		core.Fwd(pkt.MatchAll.DstPort(80), asB),
		core.Fwd(pkt.MatchAll.DstPort(443), asC),
	}))
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	return rep
}

// clearReceived resets all receive logs.
func (f *fig1) clearReceived() {
	for _, r := range []*router.BorderRouter{f.a, f.b1, f.b2, f.c, f.z} {
		r.ClearReceived()
	}
}

// sendAndExpect pushes a packet from src and asserts exactly one router
// (want) receives it; want == nil asserts nobody does.
func (f *fig1) sendAndExpect(t *testing.T, src *router.BorderRouter, p pkt.Packet, want *router.BorderRouter) pkt.Packet {
	t.Helper()
	f.clearReceived()
	if !src.Send(p) {
		if want != nil {
			t.Fatalf("Send(%v) failed: no route", p)
		}
		return pkt.Packet{}
	}
	var got pkt.Packet
	var at *router.BorderRouter
	n := 0
	for _, r := range []*router.BorderRouter{f.a, f.b1, f.b2, f.c, f.z} {
		rec := r.Received()
		n += len(rec)
		if len(rec) > 0 {
			got, at = rec[0], r
		}
	}
	if want == nil {
		if n != 0 {
			t.Fatalf("packet %v should be dropped; delivered to port %d", p, got.InPort)
		}
		return pkt.Packet{}
	}
	if n != 1 || at != want {
		t.Fatalf("packet %v delivered %d times, at port %v; want router on port %d",
			p, n, got.InPort, want.Port().ID)
	}
	return got
}

func tcp(src, dst iputil.Addr, dstPort uint16) pkt.Packet {
	return pkt.Packet{EthType: pkt.EthTypeIPv4, SrcIP: src, DstIP: dst,
		Proto: pkt.ProtoTCP, SrcPort: 40000, DstPort: dstPort}
}

func TestFig1GroupsMatchPaper(t *testing.T) {
	f := newFig1(t)
	rep := f.setFig1Policies(t)
	// Paper §4.2: C' = {{p1,p2},{p3},{p4}}.
	if rep.Groups != 3 {
		t.Fatalf("groups = %d, want 3\n%+v", rep.Groups, f.ctrl.Compiled().Groups)
	}
	comp := f.ctrl.Compiled()
	gi1, gi2 := comp.GroupIdx[f.p1], comp.GroupIdx[f.p2]
	if gi1 != gi2 {
		t.Fatal("p1 and p2 must share a group")
	}
	if comp.GroupIdx[f.p3] == gi1 || comp.GroupIdx[f.p4] == gi1 ||
		comp.GroupIdx[f.p3] == comp.GroupIdx[f.p4] {
		t.Fatal("p3 and p4 must be singleton groups")
	}
	if _, grouped := comp.GroupIdx[f.p5]; grouped {
		t.Fatal("p5 retains default behaviour and must not be grouped")
	}
	if rep.Rules == 0 || rep.Band1 == 0 || rep.Band2 == 0 {
		t.Fatalf("expected rules in both bands: %+v", rep)
	}
}

func TestFig1ApplicationSpecificPeering(t *testing.T) {
	f := newFig1(t)
	f.setFig1Policies(t)

	src := ip("50.0.0.1")
	// Web to p1: policy diverts via B even though A's best route is C.
	got := f.sendAndExpect(t, f.a, tcp(src, ip("11.1.1.1"), 80), f.b1)
	if got.DstMAC != core.PortMAC(2) {
		t.Fatalf("delivered dstmac = %v, want B1's real MAC", got.DstMAC)
	}
	// Web to p3 also goes to B (B exported p3 to A).
	f.sendAndExpect(t, f.a, tcp(src, ip("13.1.1.1"), 80), f.b1)
	// Web to p4: B did NOT export p4 to A, so the policy must not apply;
	// default forwarding delivers via C (the global best).
	f.sendAndExpect(t, f.a, tcp(src, ip("14.1.1.1"), 80), f.c)
	// HTTPS to p4 goes to C per policy.
	f.sendAndExpect(t, f.a, tcp(src, ip("14.1.1.1"), 443), f.c)
	// HTTPS to p3: C exported p3, policy applies, delivered via C even
	// though the default for p3 is B.
	f.sendAndExpect(t, f.a, tcp(src, ip("13.1.1.1"), 443), f.c)
	// Non-web traffic follows defaults: p1 -> C, p3 -> B.
	f.sendAndExpect(t, f.a, tcp(src, ip("11.1.1.1"), 22), f.c)
	f.sendAndExpect(t, f.a, tcp(src, ip("13.1.1.1"), 22), f.b1)
	// p5 is ungrouped: delivered via the normal layer-2 path to Z.
	f.sendAndExpect(t, f.a, tcp(src, ip("15.1.1.1"), 80), f.z)
	// No route at all: the router cannot even send.
	f.sendAndExpect(t, f.a, tcp(src, ip("99.0.0.1"), 80), nil)
}

func TestFig1InboundTrafficEngineering(t *testing.T) {
	f := newFig1(t)
	f.setFig1Policies(t)
	// §3.1: B steers low source addresses to B1 (port 2) and high ones to
	// B2 (port 3).
	if rep := f.ctrl.Recompile(core.CompilePolicy(asB, []core.Term{
		core.FwdPort(pkt.MatchAll.SrcIP(pfx("0.0.0.0/1")), 2),
		core.FwdPort(pkt.MatchAll.SrcIP(pfx("128.0.0.0/1")), 3),
	}, nil)); rep.Err != nil {
		t.Fatal(rep.Err)
	}

	// Policy-diverted web traffic honors B's inbound TE.
	got := f.sendAndExpect(t, f.a, tcp(ip("50.0.0.1"), ip("11.1.1.1"), 80), f.b1)
	if got.DstMAC != core.PortMAC(2) {
		t.Fatalf("low src delivered with dstmac %v", got.DstMAC)
	}
	got = f.sendAndExpect(t, f.a, tcp(ip("200.0.0.1"), ip("11.1.1.1"), 80), f.b2)
	if got.DstMAC != core.PortMAC(3) {
		t.Fatalf("high src delivered with dstmac %v", got.DstMAC)
	}
	// Default-routed traffic to p3 (default via B) honors it too.
	f.sendAndExpect(t, f.a, tcp(ip("50.0.0.1"), ip("13.1.1.1"), 22), f.b1)
	f.sendAndExpect(t, f.a, tcp(ip("200.0.0.1"), ip("13.1.1.1"), 22), f.b2)
}

func TestFig1OutboundDrop(t *testing.T) {
	f := newFig1(t)
	if rep := f.ctrl.Recompile(core.CompilePolicy(asA, nil, []core.Term{
		core.DropTerm(pkt.MatchAll.DstPort(25)), // block outbound SMTP
		core.Fwd(pkt.MatchAll.DstPort(80), asB),
	})); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	f.sendAndExpect(t, f.a, tcp(ip("50.0.0.1"), ip("11.1.1.1"), 25), nil)
	f.sendAndExpect(t, f.a, tcp(ip("50.0.0.1"), ip("11.1.1.1"), 80), f.b1)
	// Unrelated traffic still follows defaults.
	f.sendAndExpect(t, f.a, tcp(ip("50.0.0.1"), ip("11.1.1.1"), 22), f.c)
}

func TestFig1WithdrawalFastPath(t *testing.T) {
	f := newFig1(t)
	f.setFig1Policies(t)
	src := ip("50.0.0.1")

	// Before: web to p3 diverted via B.
	f.sendAndExpect(t, f.a, tcp(src, ip("13.1.1.1"), 80), f.b1)

	// B withdraws p3 (the Fig 5a failure event). The fast path must
	// immediately move web traffic to C without a full recompilation.
	res := f.b1.Withdraw(f.p3)
	if res.AffectedGroups == 0 || res.AdditionalRules == 0 {
		t.Fatalf("fast path produced no rules: %+v", res)
	}
	if f.ctrl.FastRules() == 0 {
		t.Fatal("fast band should be populated")
	}
	f.sendAndExpect(t, f.a, tcp(src, ip("13.1.1.1"), 80), f.c)
	// Non-web traffic to p3 also moves to C (its only remaining route).
	f.sendAndExpect(t, f.a, tcp(src, ip("13.1.1.1"), 22), f.c)

	// The background optimization pass produces the same forwarding and
	// clears the fast band.
	f.ctrl.Recompile()
	if f.ctrl.FastRules() != 0 {
		t.Fatal("Recompile must clear the fast band")
	}
	f.sendAndExpect(t, f.a, tcp(src, ip("13.1.1.1"), 80), f.c)
	f.sendAndExpect(t, f.a, tcp(src, ip("13.1.1.1"), 22), f.c)

	// Re-announce: traffic shifts back to B.
	f.b1.Announce(f.p3, asB)
	f.sendAndExpect(t, f.a, tcp(src, ip("13.1.1.1"), 80), f.b1)
	f.ctrl.Recompile()
	f.sendAndExpect(t, f.a, tcp(src, ip("13.1.1.1"), 80), f.b1)
}

// TestFastPathMatchesFullRecompile samples forwarding behaviour after a
// burst of updates under fast-path rules, then recompiles and verifies
// identical delivery — the §4.3.2 equivalence requirement.
func TestFastPathMatchesFullRecompile(t *testing.T) {
	f := newFig1(t)
	f.setFig1Policies(t)

	// A burst: B withdraws p1, C re-announces p3 with a better path.
	f.b1.Withdraw(f.p1)
	f.c.Announce(f.p3, asC)

	type probe struct {
		dst  iputil.Addr
		port uint16
	}
	probes := []probe{
		{ip("11.1.1.1"), 80}, {ip("11.1.1.1"), 443}, {ip("11.1.1.1"), 22},
		{ip("12.1.1.1"), 80}, {ip("13.1.1.1"), 80}, {ip("13.1.1.1"), 22},
		{ip("14.1.1.1"), 443}, {ip("15.1.1.1"), 80},
	}
	deliveredAt := func(p probe) pkt.PortID {
		f.clearReceived()
		if !f.a.Send(tcp(ip("50.0.0.1"), p.dst, p.port)) {
			return 0
		}
		for _, r := range []*router.BorderRouter{f.b1, f.b2, f.c} {
			if len(r.Received()) > 0 {
				return r.Port().ID
			}
		}
		return 0
	}

	fast := make([]pkt.PortID, len(probes))
	for i, p := range probes {
		fast[i] = deliveredAt(p)
	}
	f.ctrl.Recompile()
	for i, p := range probes {
		if got := deliveredAt(p); got != fast[i] {
			t.Fatalf("probe %+v: fast path delivered at %d, optimized at %d", p, fast[i], got)
		}
	}
}

func TestWideAreaLoadBalancer(t *testing.T) {
	f := newFig1(t)
	// AWS-like instances behind B and C.
	inst1, inst2 := pfx("74.125.224.0/24"), pfx("74.125.137.0/24")
	f.b1.Announce(inst1, asB, 16509)
	f.c.Announce(inst2, asC, 16509)

	// Remote participant D (no physical port) announces the anycast
	// prefix and installs the §3.1 load-balancing policy.
	const asD = 400
	if _, err := f.ctrl.AddParticipant(core.ParticipantConfig{AS: asD, Name: "D"}); err != nil {
		t.Fatal(err)
	}
	anycast := pfx("74.125.1.0/24")
	f.ctrl.ApplyBatch(rs.PeerUpdate{From: asD, Update: &bgp.Update{
		Attrs: &bgp.PathAttrs{ASPath: []uint32{asD}, NextHop: iputil.Addr(asD)},
		NLRI:  []iputil.Prefix{anycast},
	}})
	rep := f.ctrl.Recompile(core.CompilePolicy(asD, []core.Term{
		core.RewriteTerm(pkt.MatchAll.DstIP(pfx("74.125.1.1/32")).SrcIP(pfx("96.25.160.0/24")),
			pkt.NoMods.SetDstIP(ip("74.125.224.161"))),
		core.RewriteTerm(pkt.MatchAll.DstIP(pfx("74.125.1.1/32")).SrcIP(pfx("128.125.163.0/24")),
			pkt.NoMods.SetDstIP(ip("74.125.137.139"))),
	}, nil))
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}

	// Client 1 (via A) is rewritten to instance 1 behind B.
	got := f.sendAndExpect(t, f.a, tcp(ip("96.25.160.9"), ip("74.125.1.1"), 80), f.b1)
	if got.DstIP != ip("74.125.224.161") {
		t.Fatalf("client1 dst rewritten to %v", got.DstIP)
	}
	// Client 2 is rewritten to instance 2 behind C.
	got = f.sendAndExpect(t, f.a, tcp(ip("128.125.163.9"), ip("74.125.1.1"), 80), f.c)
	if got.DstIP != ip("74.125.137.139") {
		t.Fatalf("client2 dst rewritten to %v", got.DstIP)
	}
	// Unknown clients hit the remote participant's default: drop.
	f.sendAndExpect(t, f.a, tcp(ip("9.9.9.9"), ip("74.125.1.1"), 80), nil)

	// Withdrawal removes the anycast service.
	f.ctrl.ApplyBatch(rs.PeerUpdate{From: asD, Update: &bgp.Update{Withdrawn: []iputil.Prefix{anycast}}})
	f.ctrl.Recompile()
	f.sendAndExpect(t, f.a, tcp(ip("96.25.160.9"), ip("74.125.1.1"), 80), nil)
}

func TestMiddleboxRedirection(t *testing.T) {
	f := newFig1(t)
	// E hosts a middlebox on port 5 and announces nothing.
	const asE = 500
	if _, err := f.ctrl.AddParticipant(core.ParticipantConfig{
		AS: asE, Name: "E", Ports: []core.PhysicalPort{{ID: 5}}}); err != nil {
		t.Fatal(err)
	}
	e, err := router.Attach(f.ctrl, asE, core.PhysicalPort{ID: 5})
	if err != nil {
		t.Fatal(err)
	}

	// A redirects traffic from a suspicious source range through the
	// middlebox, everything else unchanged.
	if rep := f.ctrl.Recompile(core.CompilePolicy(asA, nil, []core.Term{
		core.FwdMiddlebox(pkt.MatchAll.SrcIP(pfx("66.0.0.0/8")), asE),
	})); rep.Err != nil {
		t.Fatal(rep.Err)
	}

	f.clearReceived()
	e.ClearReceived()
	if !f.a.Send(tcp(ip("66.1.1.1"), ip("11.1.1.1"), 80)) {
		t.Fatal("send failed")
	}
	if len(e.Received()) != 1 {
		t.Fatalf("middlebox received %d packets", len(e.Received()))
	}
	// Clean traffic bypasses the middlebox and follows defaults (C).
	f.sendAndExpect(t, f.a, tcp(ip("50.0.0.1"), ip("11.1.1.1"), 80), f.c)
}

func TestPolicyValidation(t *testing.T) {
	f := newFig1(t)
	bad := []struct {
		name            string
		in, out         []core.Term
		wantErrContains string
	}{
		{"inbound to participant", []core.Term{core.Fwd(pkt.MatchAll, asB)}, nil, ""},
		{"outbound to port", nil, []core.Term{core.FwdPort(pkt.MatchAll, 1)}, ""},
		{"outbound to self", nil, []core.Term{core.Fwd(pkt.MatchAll, asA)}, ""},
		{"outbound to unknown", nil, []core.Term{core.Fwd(pkt.MatchAll, 999)}, ""},
		{"no action", nil, []core.Term{{Match: pkt.MatchAll}}, ""},
		{"two actions", nil, []core.Term{{Match: pkt.MatchAll,
			Action: core.TermAction{ToParticipant: asB, Drop: true}}}, ""},
		{"inport in match", nil, []core.Term{core.Fwd(pkt.MatchAll.InPort(1).DstPort(80), asB)}, ""},
		{"foreign port inbound", []core.Term{core.FwdPort(pkt.MatchAll, 4)}, nil, ""},
	}
	for _, tc := range bad {
		if err := f.ctrl.SetPolicy(asA, tc.in, tc.out); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if err := f.ctrl.SetPolicy(999, nil, nil); err == nil {
		t.Error("unknown participant must error")
	}
}

func TestRouterFIBAndARP(t *testing.T) {
	f := newFig1(t)
	f.setFig1Policies(t)
	if f.a.FIBLen() == 0 {
		t.Fatal("A's FIB should be populated from advertisements")
	}
	// A's next hop for p1 must be a VNH (grouped prefix) that resolves
	// via ARP to a VMAC.
	nh, ok := f.a.Lookup(ip("11.1.1.1"))
	if !ok {
		t.Fatal("no FIB entry for p1")
	}
	if !core.VNHSubnet.Contains(nh) {
		t.Fatalf("next hop %v should be a VNH", nh)
	}
	mac, ok := f.ctrl.ARP().Resolve(nh)
	if !ok || !core.IsVMAC(mac) {
		t.Fatalf("ARP(%v) = %v, %v; want a VMAC", nh, mac, ok)
	}
	// p5 is ungrouped: its next hop is Z's real port IP resolving to the
	// real port MAC.
	nh, ok = f.a.Lookup(ip("15.1.1.1"))
	if !ok {
		t.Fatal("no FIB entry for p5")
	}
	if nh != core.PortIP(6) {
		t.Fatalf("p5 next hop = %v, want Z's port IP", nh)
	}
	mac, _ = f.ctrl.ARP().Resolve(nh)
	if mac != core.PortMAC(6) {
		t.Fatalf("p5 resolves to %v", mac)
	}
}

func TestBGPInvariantNoUnexportedDelivery(t *testing.T) {
	// "The SDX should not direct traffic to a next-hop AS that does not
	// want to receive it": even with a policy pointing all web traffic at
	// B, p4/p5 web traffic must never arrive at B (not exported to A).
	f := newFig1(t)
	f.setFig1Policies(t)
	f.sendAndExpect(t, f.a, tcp(ip("50.0.0.1"), ip("14.9.9.9"), 80), f.c)
	f.sendAndExpect(t, f.a, tcp(ip("50.0.0.1"), ip("15.9.9.9"), 80), f.z)
}

func TestRecompileIdempotent(t *testing.T) {
	f := newFig1(t)
	f.setFig1Policies(t)
	r1 := f.ctrl.Recompile()
	r2 := f.ctrl.Recompile()
	if r1.Groups != r2.Groups || r1.Rules != r2.Rules {
		t.Fatalf("recompile not stable: %+v vs %+v", r1, r2)
	}
	if f.ctrl.Dirty() {
		t.Fatal("controller should be clean after recompile")
	}
	// VNH assignments must be stable across recompiles.
	if r2.VNHCount != r1.VNHCount {
		t.Fatalf("VNH count grew on idempotent recompile: %d -> %d", r1.VNHCount, r2.VNHCount)
	}
}
