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
