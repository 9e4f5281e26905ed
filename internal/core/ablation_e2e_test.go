package core_test

import (
	"testing"

	"sdx/internal/core"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/router"
)

// TestNaiveModeForwardsIdentically verifies the §4.2 optimization is
// semantics-preserving: compiling with per-prefix destination-IP rules
// (VNH grouping disabled) forwards every probe exactly like the full
// pipeline, while using strictly more rules.
func TestNaiveModeForwardsIdentically(t *testing.T) {
	f := newFig1(t)
	f.setFig1Policies(t)
	if rep := f.ctrl.Recompile(core.CompilePolicy(asB, []core.Term{
		core.FwdPort(pkt.MatchAll.SrcIP(pfx("0.0.0.0/1")), 2),
		core.FwdPort(pkt.MatchAll.SrcIP(pfx("128.0.0.0/1")), 3),
	}, nil)); rep.Err != nil {
		t.Fatal(rep.Err)
	}

	type probe struct {
		src, dst iputil.Addr
		port     uint16
	}
	probes := []probe{
		{ip("50.0.0.1"), ip("11.1.1.1"), 80},
		{ip("200.0.0.1"), ip("11.1.1.1"), 80},
		{ip("50.0.0.1"), ip("11.1.1.1"), 443},
		{ip("50.0.0.1"), ip("12.1.1.1"), 22},
		{ip("50.0.0.1"), ip("13.1.1.1"), 80},
		{ip("200.0.0.1"), ip("13.1.1.1"), 22},
		{ip("50.0.0.1"), ip("14.1.1.1"), 80},
		{ip("50.0.0.1"), ip("14.1.1.1"), 443},
		{ip("50.0.0.1"), ip("15.1.1.1"), 80},
	}
	deliveries := func() []pkt.PortID {
		out := make([]pkt.PortID, len(probes))
		for i, pr := range probes {
			f.clearReceived()
			if !f.a.Send(tcp(pr.src, pr.dst, pr.port)) {
				out[i] = 0
				continue
			}
			for _, r := range []*router.BorderRouter{f.b1, f.b2, f.c, f.z} {
				if len(r.Received()) > 0 {
					out[i] = r.Port().ID
				}
			}
		}
		return out
	}

	full := f.ctrl.Recompile()
	want := deliveries()

	naive := f.ctrl.Recompile(core.CompileNaiveDstIP())
	got := deliveries()
	for i := range probes {
		if got[i] != want[i] {
			t.Fatalf("probe %+v: naive delivered at %d, full at %d", probes[i], got[i], want[i])
		}
	}
	if naive.Rules <= full.Rules {
		t.Fatalf("naive mode should cost more rules: %d vs %d", naive.Rules, full.Rules)
	}

	// And back: the full pipeline restores the smaller table.
	again := f.ctrl.Recompile()
	if again.Rules != full.Rules {
		t.Fatalf("round trip changed rules: %d vs %d", again.Rules, full.Rules)
	}
	final := deliveries()
	for i := range probes {
		if final[i] != want[i] {
			t.Fatalf("probe %+v changed after restoring full mode", probes[i])
		}
	}
}

// TestAblationKnobsPreserveSemantics runs the concat knob over the
// Figure 1 probes.
func TestAblationKnobsPreserveSemantics(t *testing.T) {
	f := newFig1(t)
	f.setFig1Policies(t)

	check := func(mode string, opts ...core.CompileOption) {
		t.Helper()
		f.ctrl.Recompile(opts...)
		got := f.sendAndExpect(t, f.a, tcp(ip("50.0.0.1"), ip("11.1.1.1"), 80), f.b1)
		if got.DstMAC != core.PortMAC(2) {
			t.Fatalf("%s: dstmac %v", mode, got.DstMAC)
		}
		f.sendAndExpect(t, f.a, tcp(ip("50.0.0.1"), ip("11.1.1.1"), 22), f.c)
	}
	check("no-concat", core.CompileWithoutConcat())
	check("full")
}
