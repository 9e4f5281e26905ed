package fabric_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/fabric"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/rs"
)

func pfx(s string) iputil.Prefix { return iputil.MustParsePrefix(s) }
func ip(s string) iputil.Addr    { return iputil.MustParseAddr(s) }

// twoSwitch builds: s1 hosts ports 1 (A) and 2 (B); s2 hosts port 4 (C);
// one trunk link.
func twoSwitch(t *testing.T) *fabric.Fabric {
	t.Helper()
	f, err := fabric.New(fabric.Topology{
		Switches: []string{"s1", "s2"},
		Ports:    map[pkt.PortID]string{1: "s1", 2: "s1", 4: "s2"},
		Links:    []fabric.Link{{A: "s1", B: "s2", PortA: 100, PortB: 101}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// chainThree builds a three-switch chain s1 - s2 - s3 with one
// participant port per switch, so s1->s3 traffic crosses two trunks.
func chainThree(t *testing.T) *fabric.Fabric {
	t.Helper()
	f, err := fabric.New(fabric.Topology{
		Switches: []string{"s1", "s2", "s3"},
		Ports:    map[pkt.PortID]string{1: "s1", 2: "s2", 4: "s3"},
		Links: []fabric.Link{
			{A: "s1", B: "s2", PortA: 100, PortB: 101},
			{A: "s2", B: "s3", PortA: 102, PortB: 103},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestTopologyValidation(t *testing.T) {
	if _, err := fabric.New(fabric.Topology{}); err == nil {
		t.Fatal("empty topology must fail")
	}
	if _, err := fabric.New(fabric.Topology{
		Switches: []string{"s1", "s2"},
		Ports:    map[pkt.PortID]string{1: "s1"},
	}); err == nil {
		t.Fatal("disconnected topology must fail")
	}
	if _, err := fabric.New(fabric.Topology{
		Switches: []string{"s1"},
		Ports:    map[pkt.PortID]string{1: "nope"},
	}); err == nil {
		t.Fatal("port on unknown switch must fail")
	}
	if _, err := fabric.New(fabric.Topology{
		Switches: []string{"s1", "s1"},
	}); err == nil {
		t.Fatal("duplicate switch must fail")
	}
	if _, err := fabric.New(fabric.Topology{
		Switches: []string{"s1"},
		Links:    []fabric.Link{{A: "s1", B: "zz", PortA: 1, PortB: 2}},
	}); err == nil {
		t.Fatal("link to unknown switch must fail")
	}
}

// exchange wires a controller to a fabric and returns per-port delivery
// sinks. It reproduces the Figure 1 policy scenario: A (port 1) sends
// web via B (port 2), default best route via C (port 4).
func exchange(t *testing.T, f *fabric.Fabric) (*core.Controller, map[pkt.PortID]*[]pkt.Packet) {
	t.Helper()
	ctrl := core.NewController()
	for _, cfg := range []core.ParticipantConfig{
		{AS: 100, Name: "A", Ports: []core.PhysicalPort{{ID: 1}}},
		{AS: 200, Name: "B", Ports: []core.PhysicalPort{{ID: 2}}},
		{AS: 300, Name: "C", Ports: []core.PhysicalPort{{ID: 4}}},
	} {
		if _, err := ctrl.AddParticipant(cfg); err != nil {
			t.Fatal(err)
		}
	}
	ctrl.AddRuleMirror(f)

	sinks := map[pkt.PortID]*[]pkt.Packet{}
	var mu sync.Mutex
	for _, port := range []pkt.PortID{1, 2, 4} {
		buf := &[]pkt.Packet{}
		sinks[port] = buf
		if err := f.SetDeliver(port, func(p pkt.Packet) {
			mu.Lock()
			*buf = append(*buf, p)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}

	p1 := pfx("11.0.0.0/8")
	announce := func(peer uint32, port pkt.PortID, path ...uint32) {
		ctrl.ApplyBatch(rs.PeerUpdate{From: peer, Update: &bgp.Update{
			Attrs: &bgp.PathAttrs{ASPath: path, NextHop: core.PortIP(port)},
			NLRI:  []iputil.Prefix{p1},
		}})
	}
	announce(200, 2, 200, 900, 901)
	announce(300, 4, 300)
	if rep := ctrl.Recompile(core.CompilePolicy(100, nil, []core.Term{
		core.Fwd(pkt.MatchAll.DstPort(80), 200),
	})); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	return ctrl, sinks
}

func tagged(ctrl *core.Controller, dst iputil.Addr, dstPort uint16) pkt.Packet {
	comp := ctrl.Compiled()
	return pkt.Packet{
		EthType: pkt.EthTypeIPv4,
		DstMAC:  comp.VMACs[0],
		SrcIP:   ip("50.0.0.1"), DstIP: dst,
		Proto: pkt.ProtoTCP, SrcPort: 40000, DstPort: dstPort,
	}
}

func take(sinks map[pkt.PortID]*[]pkt.Packet, port pkt.PortID) []pkt.Packet {
	out := *sinks[port]
	*sinks[port] = nil
	return out
}

func TestTwoSwitchPolicyAndDefault(t *testing.T) {
	f := twoSwitch(t)
	ctrl, sinks := exchange(t, f)

	// Web traffic: A and B share s1 — no trunk hop.
	f.Inject(1, tagged(ctrl, ip("11.1.1.1"), 80))
	got := take(sinks, 2)
	if len(got) != 1 || got[0].DstMAC != core.PortMAC(2) {
		t.Fatalf("web delivery: %v", got)
	}
	// Default traffic: C is on s2 — crosses the trunk.
	f.Inject(1, tagged(ctrl, ip("11.1.1.1"), 22))
	got = take(sinks, 4)
	if len(got) != 1 || got[0].DstMAC != core.PortMAC(4) {
		t.Fatalf("default delivery over trunk: %v", got)
	}
	if n := len(take(sinks, 2)); n != 0 {
		t.Fatalf("B received %d stray packets", n)
	}
}

func TestThreeSwitchChainTraversal(t *testing.T) {
	f := chainThree(t)
	ctrl, sinks := exchange(t, f)

	// A (s1) -> C (s3): two trunk hops.
	f.Inject(1, tagged(ctrl, ip("11.1.1.1"), 22))
	got := take(sinks, 4)
	if len(got) != 1 {
		t.Fatalf("chain delivery: %v", got)
	}
	// Policy traffic A (s1) -> B (s2): one hop.
	f.Inject(1, tagged(ctrl, ip("11.1.1.1"), 80))
	if got := take(sinks, 2); len(got) != 1 {
		t.Fatalf("policy over one trunk: %v", got)
	}
	// Reverse direction: C (s3) -> default is… C's own best excludes its
	// route, so inject plain L2 traffic addressed to A's real MAC.
	f.Inject(4, pkt.Packet{DstMAC: core.PortMAC(1), EthType: pkt.EthTypeIPv4})
	if got := take(sinks, 1); len(got) != 1 {
		t.Fatalf("reverse L2 delivery: %v", got)
	}
}

// TestFabricMatchesSingleSwitch drives identical probes through the
// controller's local single switch and the distributed fabric and
// requires byte-identical deliveries.
func TestFabricMatchesSingleSwitch(t *testing.T) {
	f := chainThree(t)
	ctrl, sinks := exchange(t, f)

	// Mirror of the local switch: register the same ports with sinks.
	localSinks := map[pkt.PortID]*[]pkt.Packet{}
	for _, port := range []pkt.PortID{1, 2, 4} {
		buf := &[]pkt.Packet{}
		localSinks[port] = buf
		if err := ctrl.Switch().SetDeliver(port, func(p pkt.Packet) {
			*buf = append(*buf, p)
		}); err != nil {
			t.Fatal(err)
		}
	}

	probes := []struct {
		dst  iputil.Addr
		port uint16
	}{
		{ip("11.1.1.1"), 80}, {ip("11.1.1.1"), 443}, {ip("11.1.1.1"), 22},
		{ip("11.200.3.4"), 80},
	}
	for _, pr := range probes {
		p := tagged(ctrl, pr.dst, pr.port)
		f.Inject(1, p)
		ctrl.Switch().Inject(1, p)
		for _, port := range []pkt.PortID{1, 2, 4} {
			distributed := take(sinks, port)
			local := *localSinks[port]
			*localSinks[port] = nil
			if len(distributed) != len(local) {
				t.Fatalf("probe %v port %d: fabric delivered %d, single switch %d",
					pr, port, len(distributed), len(local))
			}
			for i := range local {
				// In-port differs (trunk vs direct); compare the rest.
				d, l := distributed[i], local[i]
				d.InPort, l.InPort = 0, 0
				if !d.SameHeader(l) {
					t.Fatalf("probe %v port %d: %v != %v", pr, port, d, l)
				}
			}
		}
	}
}

func TestFastPathReachesAllSwitches(t *testing.T) {
	f := chainThree(t)
	ctrl, sinks := exchange(t, f)

	before := f.TotalRules()
	// Withdraw B's route: the fast path must reprogram the fabric.
	ctrl.ApplyBatch(rs.PeerUpdate{From: 200, Update: &bgp.Update{Withdrawn: []iputil.Prefix{pfx("11.0.0.0/8")}}})
	if f.TotalRules() <= before {
		t.Fatalf("fast band not distributed: %d -> %d rules", before, f.TotalRules())
	}
	// Web traffic now goes to C; the router would re-tag with the fresh
	// VNH's VMAC (fastGroup's), which we read from the ARP responder via
	// the advertised route… simplest: look it up through the compiled
	// fast prefix map by sending with the new VMAC.
	nhMAC := currentVMAC(t, ctrl, pfx("11.0.0.0/8"))
	f.Inject(1, pkt.Packet{
		EthType: pkt.EthTypeIPv4, DstMAC: nhMAC,
		SrcIP: ip("50.0.0.1"), DstIP: ip("11.1.1.1"),
		Proto: pkt.ProtoTCP, DstPort: 80,
	})
	if got := take(sinks, 4); len(got) != 1 {
		t.Fatalf("post-withdrawal delivery: %v", got)
	}
	// Background optimization shrinks every switch again.
	ctrl.Recompile()
	if f.TotalRules() >= before+5 {
		t.Fatalf("recompile did not clean the fabric: %d rules", f.TotalRules())
	}
}

// dump renders a flow table as sorted, byte-comparable lines.
func dump(tb *dataplane.FlowTable) []string {
	entries := tb.Entries()
	lines := make([]string, len(entries))
	for i, e := range entries {
		lines[i] = fmt.Sprintf("cookie=%d %s", e.Cookie, e)
	}
	sort.Strings(lines)
	return lines
}

func hasTrunkBand(lines []string) bool {
	tag := fmt.Sprintf("cookie=%d ", fabric.TrunkCookie)
	for _, l := range lines {
		if strings.HasPrefix(l, tag) {
			return true
		}
	}
	return false
}

// TestFlushReplayRestoresTrunkBand: the reconnect resync path —
// AddRuleMirror flushing a RuleFlusher sink and replaying the policy
// bands — must reconstruct every member switch's table byte-identically,
// including the static trunk band the controller does not own. Before
// Fabric implemented FlushAll, a resync either skipped the flush (stale
// rules lingered) or, flushed remotely, lost the trunk band for good.
func TestFlushReplayRestoresTrunkBand(t *testing.T) {
	f := chainThree(t)
	ctrl, _ := exchange(t, f)

	golden := map[string][]string{}
	for _, name := range []string{"s1", "s2", "s3"} {
		golden[name] = dump(f.Switch(name).Table())
		if !hasTrunkBand(golden[name]) {
			t.Fatalf("%s: golden table has no trunk band:\n%s", name, strings.Join(golden[name], "\n"))
		}
	}

	// A dead control channel leaves stale rules behind; the resync must
	// not merge them into the replayed state.
	f.Switch("s2").Table().AddBatch([]*dataplane.FlowEntry{{
		Priority: 7,
		Match:    pkt.MatchAll.DstPort(9999),
		Actions:  []pkt.Action{pkt.Output(2)},
		Cookie:   0xdead,
	}})

	ctrl.RemoveRuleMirror(f)
	ctrl.AddRuleMirror(f) // reconnect: FlushAll + band replay

	for name, want := range golden {
		got := dump(f.Switch(name).Table())
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s: post-resync table != pre-flush table\n got:\n  %s\n want:\n  %s",
				name, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
	}
}

// tableSink drives a bare flow table as a RuleSink+RuleFlusher — the
// test stand-in for an openflow.Mirror pushing FlowMods to a remote
// switch (whose FlushAll is a wire OpFlushAll).
type tableSink struct{ t *dataplane.FlowTable }

func (s tableSink) AddBatch(es []*dataplane.FlowEntry)          { s.t.AddBatch(es) }
func (s tableSink) Replace(c uint64, es []*dataplane.FlowEntry) { s.t.Replace(c, es) }
func (s tableSink) DeleteCookie(c uint64)                       { s.t.DeleteCookie(c) }
func (s tableSink) FlushAll()                                   { s.t.Flush() }

// TestSwitchSinkResync: per-switch control channels resync through
// SwitchSink. AddRuleMirror's flush-then-replay must rebuild each remote
// switch table byte-identically to the local fabric model — trunk band
// included (SwitchSink.FlushAll replays it after the remote flush) — and
// incremental fast-path ops must keep the tables in lockstep.
func TestSwitchSinkResync(t *testing.T) {
	f := chainThree(t)
	ctrl, _ := exchange(t, f)

	names := []string{"s1", "s2", "s3"}
	remote := map[string]*dataplane.FlowTable{}
	for _, name := range names {
		tb := dataplane.NewSwitch(name + "-remote").Table()
		// Pre-dirty the remote: a previous channel's leftovers must be
		// wiped by the resync flush.
		tb.AddBatch([]*dataplane.FlowEntry{{
			Priority: 3, Match: pkt.MatchAll.DstPort(1), Cookie: 0xbeef,
		}})
		remote[name] = tb
		sink, err := f.SwitchSink(name, tableSink{tb})
		if err != nil {
			t.Fatal(err)
		}
		ctrl.AddRuleMirror(sink)
	}

	compare := func(stage string) {
		t.Helper()
		for _, name := range names {
			want := dump(f.Switch(name).Table())
			got := dump(remote[name])
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("%s %s: remote table != local model\n got:\n  %s\n want:\n  %s",
					stage, name, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
			}
			if !hasTrunkBand(got) {
				t.Fatalf("%s %s: remote table lost the trunk band", stage, name)
			}
		}
	}
	compare("post-resync")

	// Fast-path churn flows through per-switch sinks identically.
	ctrl.ApplyBatch(rs.PeerUpdate{From: 200, Update: &bgp.Update{Withdrawn: []iputil.Prefix{pfx("11.0.0.0/8")}}})
	compare("post-withdraw")
	ctrl.Recompile()
	compare("post-recompile")

	// An unknown switch name is rejected.
	if _, err := f.SwitchSink("nope", tableSink{remote["s1"]}); err == nil {
		t.Fatal("SwitchSink for unknown switch must fail")
	}
}

// currentVMAC resolves the VMAC a border router would tag packets for a
// prefix with, by asking the controller's advertised state.
func currentVMAC(t *testing.T, ctrl *core.Controller, prefix iputil.Prefix) pkt.MAC {
	t.Helper()
	for _, ad := range ctrl.RoutesFor(100) {
		if ad.Prefix == prefix {
			mac, ok := ctrl.ARP().Resolve(ad.NextHop)
			if !ok {
				t.Fatalf("ARP cannot resolve advertised next hop %v", ad.NextHop)
			}
			return mac
		}
	}
	t.Fatalf("no advertisement for %v", prefix)
	return 0
}
