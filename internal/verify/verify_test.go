package verify

import (
	"math/rand"
	"strings"
	"testing"

	"sdx/internal/dataplane"
	"sdx/internal/fabric"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
)

func pfx(s string) iputil.Prefix { return iputil.MustParsePrefix(s) }

func out(p pkt.PortID) []pkt.Action { return []pkt.Action{pkt.Output(p)} }

func kinds(r *Report) []Kind {
	ks := make([]Kind, len(r.Findings))
	for i, f := range r.Findings {
		ks[i] = f.Kind
	}
	return ks
}

func TestDetectsEqualPriorityConflict(t *testing.T) {
	// Overlapping dst prefixes at the same priority, different outputs:
	// nondeterministic forwarding on hardware without a tie-break.
	rep := Entries([]*dataplane.FlowEntry{
		{Priority: 5, Match: pkt.MatchAll.DstIP(pfx("10.0.0.0/8")), Actions: out(1), Cookie: 3},
		{Priority: 5, Match: pkt.MatchAll.DstIP(pfx("10.1.0.0/16")), Actions: out(2), Cookie: 3},
	})
	if len(rep.Findings) != 1 || rep.Findings[0].Kind != KindConflict {
		t.Fatalf("findings = %v, want one conflict", rep.Findings)
	}
	if rep.Err() == nil || !strings.Contains(rep.Err().Error(), "divergent actions") {
		t.Fatalf("Err() = %v", rep.Err())
	}
}

func TestEqualPriorityOverlapSameActionsIsClean(t *testing.T) {
	rep := Entries([]*dataplane.FlowEntry{
		{Priority: 5, Match: pkt.MatchAll.DstIP(pfx("10.0.0.0/8")), Actions: out(1)},
		{Priority: 5, Match: pkt.MatchAll.SrcPort(80), Actions: out(1)},
	})
	if !rep.OK() {
		t.Fatalf("identical actions must not conflict: %v", rep.Findings)
	}
}

func TestActionOrderDoesNotConflict(t *testing.T) {
	// Multicast action sets are unordered: every action of the winning
	// entry applies, so permuted sets are the same behaviour.
	a := []pkt.Action{pkt.Output(1), pkt.Output(2)}
	b := []pkt.Action{pkt.Output(2), pkt.Output(1)}
	rep := Entries([]*dataplane.FlowEntry{
		{Priority: 5, Match: pkt.MatchAll.DstPort(80), Actions: a},
		{Priority: 5, Match: pkt.MatchAll, Actions: b},
	})
	if !rep.OK() {
		t.Fatalf("permuted action sets must not conflict: %v", rep.Findings)
	}
}

func TestDropVersusForwardConflicts(t *testing.T) {
	rep := Entries([]*dataplane.FlowEntry{
		{Priority: 5, Match: pkt.MatchAll.DstPort(80), Actions: out(1)},
		{Priority: 5, Match: pkt.MatchAll.SrcIP(pfx("10.0.0.0/8")), Actions: nil}, // drop
	})
	if len(rep.Findings) != 1 || rep.Findings[0].Kind != KindConflict {
		t.Fatalf("drop vs forward at equal priority must conflict: %v", rep.Findings)
	}
}

func TestDetectsShadowedRule(t *testing.T) {
	// The /16 rule is fully inside the higher-priority /8 rule of the
	// same band: unreachable.
	rep := Entries([]*dataplane.FlowEntry{
		{Priority: 10, Match: pkt.MatchAll.DstIP(pfx("10.0.0.0/8")), Actions: out(1), Cookie: 1},
		{Priority: 5, Match: pkt.MatchAll.DstIP(pfx("10.1.0.0/16")), Actions: out(2), Cookie: 1},
	})
	if len(rep.Findings) != 1 || rep.Findings[0].Kind != KindShadow {
		t.Fatalf("findings = %v, want one shadow", rep.Findings)
	}
}

func TestCrossBandShadowIsExempt(t *testing.T) {
	// Same geometry as TestDetectsShadowedRule but across cookies: the
	// fast band overlays stale band rules by design, so no finding.
	rep := Entries([]*dataplane.FlowEntry{
		{Priority: 10, Match: pkt.MatchAll.DstIP(pfx("10.0.0.0/8")), Actions: out(1), Cookie: 3},
		{Priority: 5, Match: pkt.MatchAll.DstIP(pfx("10.1.0.0/16")), Actions: out(2), Cookie: 2},
	})
	if !rep.OK() {
		t.Fatalf("cross-cookie coverage must be exempt: %v", rep.Findings)
	}
}

func TestEqualPriorityDuplicateIsShadowNotConflict(t *testing.T) {
	// Identical match and actions at equal priority: redundant rule. The
	// tie-break makes the second unreachable; actions agree, so it is a
	// shadow, not a conflict.
	m := pkt.MatchAll.DstIP(pfx("10.0.0.0/8"))
	rep := Entries([]*dataplane.FlowEntry{
		{Priority: 5, Match: m, Actions: out(1), Cookie: 3},
		{Priority: 5, Match: m, Actions: out(1), Cookie: 3},
	})
	if len(rep.Findings) != 1 || rep.Findings[0].Kind != KindShadow {
		t.Fatalf("findings = %v, want one shadow", rep.Findings)
	}
}

func TestEqualPriorityCoveredDivergentIsConflictOnly(t *testing.T) {
	rep := Entries([]*dataplane.FlowEntry{
		{Priority: 5, Match: pkt.MatchAll.DstIP(pfx("10.0.0.0/8")), Actions: out(1), Cookie: 3},
		{Priority: 5, Match: pkt.MatchAll.DstIP(pfx("10.1.0.0/16")), Actions: out(2), Cookie: 3},
	})
	if len(rep.Findings) != 1 || rep.Findings[0].Kind != KindConflict {
		t.Fatalf("covered + divergent at equal priority must report conflict only: %v", rep.Findings)
	}
}

func TestShadowNeedsEveryFieldCovered(t *testing.T) {
	// The higher rule constrains dst port; the lower one does not, so
	// some packets reach it: not shadowed.
	rep := Entries([]*dataplane.FlowEntry{
		{Priority: 10, Match: pkt.MatchAll.DstIP(pfx("10.0.0.0/8")).DstPort(80), Actions: out(1)},
		{Priority: 5, Match: pkt.MatchAll.DstIP(pfx("10.1.0.0/16")), Actions: out(2)},
	})
	if !rep.OK() {
		t.Fatalf("partial coverage must not shadow: %v", rep.Findings)
	}
}

func TestTableChecksLiveContents(t *testing.T) {
	tbl := dataplane.NewFlowTable()
	tbl.Add(&dataplane.FlowEntry{Priority: 5, Match: pkt.MatchAll.DstPort(80), Actions: out(1)})
	tbl.Add(&dataplane.FlowEntry{Priority: 5, Match: pkt.MatchAll, Actions: out(2)})
	rep := Table(tbl)
	if len(rep.Findings) != 1 || rep.Findings[0].Kind != KindConflict {
		t.Fatalf("findings = %v, want one conflict", rep.Findings)
	}
	if rep.Rules != 2 {
		t.Fatalf("Rules = %d, want 2", rep.Rules)
	}
}

func twoSwitchTopo() fabric.Topology {
	return fabric.Topology{
		Switches: []string{"s1", "s2"},
		Ports:    map[pkt.PortID]string{1: "s1", 2: "s2"},
		Links:    []fabric.Link{{A: "s1", B: "s2", PortA: 100, PortB: 101}},
	}
}

func TestFabricCleanAfterNew(t *testing.T) {
	topo := twoSwitchTopo()
	f, err := fabric.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	rep := Fabric(f, topo)
	if !rep.OK() {
		t.Fatalf("fresh fabric must verify clean: %v", rep.Findings)
	}
	if rep.Rules == 0 {
		t.Fatal("expected trunk rules to be examined")
	}
}

func TestDetectsTrunkGap(t *testing.T) {
	topo := twoSwitchTopo()
	f, err := fabric.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	// Wipe s1's trunk band: both participant ports lose coverage there.
	f.Switch("s1").Table().DeleteCookie(fabric.TrunkCookie)
	rep := Fabric(f, topo)
	if len(rep.Findings) != 2 {
		t.Fatalf("findings = %v, want two trunk gaps", rep.Findings)
	}
	for _, fd := range rep.Findings {
		if fd.Kind != KindTrunkGap || fd.Switch != "s1" {
			t.Fatalf("finding = %+v, want trunk-gap on s1", fd)
		}
	}
}

func TestFabricReportsMemberTableConflicts(t *testing.T) {
	topo := twoSwitchTopo()
	f, err := fabric.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	f.Switch("s2").Table().AddBatch([]*dataplane.FlowEntry{
		{Priority: 7, Match: pkt.MatchAll.DstPort(80), Actions: out(1), Cookie: 1},
		{Priority: 7, Match: pkt.MatchAll, Actions: nil, Cookie: 1},
	})
	rep := Fabric(f, topo)
	if len(rep.Findings) != 1 || rep.Findings[0].Kind != KindConflict || rep.Findings[0].Switch != "s2" {
		t.Fatalf("findings = %v, want one conflict on s2", rep.Findings)
	}
}

func TestShadowPruningStillExactAcrossFieldShapes(t *testing.T) {
	// The bucket pruning must not miss coverage when the covering rule
	// leaves in-port and dst-MAC wild while the covered rule pins both.
	mac := pkt.MAC(0x0200_0000_0001)
	rep := Entries([]*dataplane.FlowEntry{
		{Priority: 10, Match: pkt.MatchAll.DstIP(pfx("10.0.0.0/8")), Actions: out(1)},
		{Priority: 5, Match: pkt.MatchAll.InPort(3).DstMAC(mac).DstIP(pfx("10.2.0.0/16")), Actions: out(2)},
	})
	if len(rep.Findings) != 1 || rep.Findings[0].Kind != KindShadow {
		t.Fatalf("findings = %v, want one shadow", rep.Findings)
	}
}

// TestShadowsMatchPairwiseScan: over random tables, the indexed shadow
// check flags exactly the entries that a scan of every earlier entry of
// the same cookie flags.
func TestShadowsMatchPairwiseScan(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	prefixes := []iputil.Prefix{pfx("0.0.0.0/0"), pfx("10.0.0.0/8"), pfx("10.1.0.0/16"), pfx("10.1.2.0/24"), pfx("10.2.0.0/16")}
	for trial := 0; trial < 100; trial++ {
		es := make([]*dataplane.FlowEntry, 1+r.Intn(200))
		for i := range es {
			m := pkt.MatchAll
			if r.Intn(4) > 0 {
				m = m.DstIP(prefixes[r.Intn(len(prefixes))])
			}
			if r.Intn(2) == 0 {
				m = m.InPort(pkt.PortID(r.Intn(3)))
			}
			if r.Intn(2) == 0 {
				m = m.DstMAC(pkt.MAC(r.Intn(3)))
			}
			if r.Intn(3) == 0 {
				m = m.DstPort(80)
			}
			es[i] = &dataplane.FlowEntry{Priority: r.Intn(4), Match: m, Actions: out(pkt.PortID(r.Intn(2))), Cookie: uint64(r.Intn(2))}
		}
		ordered := append([]*dataplane.FlowEntry(nil), es...)
		dataplane.OrderEntries(ordered)
		var want []string
		for i, e := range ordered {
			for _, prev := range ordered[:i] {
				if prev.Cookie == e.Cookie && prev.Match.Covers(e.Match) &&
					(prev.Priority != e.Priority || sameActions(prev.Actions, e.Actions)) {
					want = append(want, describe(e))
					break
				}
			}
		}
		var got []string
		for _, f := range Entries(es).Findings {
			if f.Kind == KindShadow {
				got = append(got, f.Rule)
			}
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("trial %d: shadows\n%s\nwant\n%s", trial, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
