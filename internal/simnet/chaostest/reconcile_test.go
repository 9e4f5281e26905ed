package chaostest

import (
	"strings"
	"testing"
	"time"

	"sdx"
	"sdx/internal/dataplane"
	"sdx/internal/fabric"
	"sdx/internal/pkt"
	"sdx/internal/reconcile"
	"sdx/internal/simnet"
)

// twoSwitchTopo is the minimal fabric for harness-internal tests: two
// switches, one participant port each, one trunk link.
func twoSwitchTopo() fabric.Topology {
	return fabric.Topology{
		Switches: []string{"s1", "s2"},
		Ports:    map[pkt.PortID]string{1: "s1", 2: "s2"},
		Links:    []fabric.Link{{A: "s1", B: "s2", PortA: 100, PortB: 101}},
	}
}

// TestFabricReconcileRepairsRemote drives the reconciler against a
// deliberately corrupted remote switch: the trunk band deleted (a trunk
// gap, the drift class that strands in-transit traffic) plus a foreign
// cookie installed. One pass must classify and repair both; after a
// barrier the next pass must be clean with zero repairs (idempotence) and
// the remote table byte-identical to the model.
func TestFabricReconcileRepairsRemote(t *testing.T) {
	specs := []PeerSpec{
		{AS: 100, Port: 1, Outbound: []sdx.Term{sdx.Fwd(sdx.MatchAll.DstPort(80), 200)}},
		{AS: 200, Port: 2, Anns: []Announcement{
			{Prefix: sdx.MustParsePrefix("11.0.0.0/8"), Path: []uint32{200}},
		}},
	}
	n := simnet.New(97)
	defer n.Close()
	fd, err := StartFabric(n, 97, specs, twoSwitchTopo(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Stop()
	if err := fd.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, name := range fd.SwitchNames() {
		if err := fd.OFClient(name).Barrier(); err != nil {
			t.Fatalf("switch %s barrier: %v", name, err)
		}
	}
	if sum := fd.ReconcileOnce(); !sum.Clean {
		t.Fatalf("baseline pass not clean: %+v", sum)
	}

	// Corrupt s2 behind the controller's back.
	tbl := fd.remote["s2"].Table()
	if tbl.DeleteCookie(fabric.TrunkCookie) == 0 {
		t.Fatal("corruption removed no trunk entries")
	}
	tbl.AddBatch([]*dataplane.FlowEntry{{
		Priority: 7,
		Cookie:   4242,
		Actions:  []pkt.Action{pkt.Output(1)},
	}})

	sum := fd.ReconcileOnce()
	if sum.Clean || sum.Repairs == 0 {
		t.Fatalf("corruption pass found nothing: %+v", sum)
	}
	var s2 *reconcile.TargetSummary
	for i := range sum.Targets {
		if sum.Targets[i].Name == "s2" {
			s2 = &sum.Targets[i]
		}
	}
	if s2 == nil {
		t.Fatalf("no s2 target in summary: %+v", sum)
	}
	if s2.Drift.Missing == 0 || s2.Drift.Extra == 0 || s2.Drift.TrunkGaps == 0 {
		t.Fatalf("drift misclassified: %+v", s2.Drift)
	}
	if err := fd.OFClient("s2").Barrier(); err != nil {
		t.Fatalf("post-repair barrier: %v", err)
	}

	if sum := fd.ReconcileOnce(); !sum.Clean || sum.Repairs != 0 {
		t.Fatalf("repair not idempotent: %+v", sum)
	}
	model, remote := fd.ModelRules("s2"), fd.RemoteRules("s2")
	if strings.Join(model, "\n") != strings.Join(remote, "\n") {
		t.Fatalf("s2 not byte-identical after repair\n remote:\n  %s\n model:\n  %s",
			strings.Join(remote, "\n  "), strings.Join(model, "\n  "))
	}
}

// TestFabricRecompileRetiresFastBand: the exchange's channel sinks
// confirm with a barrier, so a full pass over live fast rules retires
// them make before break — it keeps them installed for the retirement
// grace after re-advertising, then removes them everywhere — and leaves
// every remote table equal to its model.
func TestFabricRecompileRetiresFastBand(t *testing.T) {
	specs := []PeerSpec{
		{AS: 100, Port: 1, Outbound: []sdx.Term{sdx.Fwd(sdx.MatchAll.DstPort(80), 200)}},
		{AS: 200, Port: 2, Anns: []Announcement{
			{Prefix: sdx.MustParsePrefix("11.0.0.0/8"), Path: []uint32{200}},
			{Prefix: sdx.MustParsePrefix("12.0.0.0/8"), Path: []uint32{200}},
		}},
	}
	n := simnet.New(31)
	defer n.Close()
	fd, err := StartFabric(n, 31, specs, twoSwitchTopo(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Stop()
	if err := fd.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The announcements arrived after the exchange's initial compile, so
	// the fast path installed them.
	if fd.Ctrl.FastRules() == 0 {
		t.Fatal("no live fast rules before the recompile")
	}

	// fastRetireGrace in internal/core: a break-before-make pass deletes
	// the fast band with the swap and returns without waiting it out.
	const retireGrace = 50 * time.Millisecond
	start := time.Now()
	fd.Ctrl.Recompile()
	if took := time.Since(start); took < retireGrace {
		t.Fatalf("recompile returned after %v, inside the retirement grace: the fast band was not retired make before break", took)
	}
	if n := fd.Ctrl.FastRules(); n != 0 {
		t.Fatalf("%d fast rules survived the recompile", n)
	}
	for _, name := range fd.SwitchNames() {
		if err := fd.OFClient(name).Barrier(); err != nil {
			t.Fatalf("switch %s barrier: %v", name, err)
		}
		model, remote := fd.ModelRules(name), fd.RemoteRules(name)
		if strings.Join(model, "\n") != strings.Join(remote, "\n") {
			t.Fatalf("switch %s diverges from its model after the recompile\n remote:\n  %s\n model:\n  %s",
				name, strings.Join(remote, "\n  "), strings.Join(model, "\n  "))
		}
	}
}
