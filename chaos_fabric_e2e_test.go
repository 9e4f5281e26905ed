package sdx_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"sdx"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/simnet"
	"sdx/internal/simnet/chaostest"
)

// fabricTopo is the triangle fabric: three switches, a participant port
// subset on each, and redundant trunks (every pair directly linked).
func fabricTopo(ports map[sdx.PortID]string) sdx.FabricTopology {
	return sdx.FabricTopology{
		Switches: []string{"s1", "s2", "s3"},
		Ports:    ports,
		Links: []sdx.FabricLink{
			{A: "s1", B: "s2", PortA: 100, PortB: 101},
			{A: "s2", B: "s3", PortA: 102, PortB: 103},
			{A: "s1", B: "s3", PortA: 104, PortB: 105},
		},
	}
}

// multiswitchSpecs is the examples/multiswitch workload as a chaos
// deployment: A on s1 steers web traffic to B on s2 by policy while the
// BGP best path for the same prefix is C on s3.
func multiswitchSpecs() []chaostest.PeerSpec {
	pfx := sdx.MustParsePrefix
	return []chaostest.PeerSpec{
		{
			AS: 100, Port: 1,
			Outbound: []sdx.Term{
				sdx.Fwd(sdx.MatchAll.DstPort(80), 200),
				sdx.Fwd(sdx.MatchAll.DstPort(443), 300),
			},
		},
		{
			AS: 200, Port: 2,
			Anns: []chaostest.Announcement{
				{Prefix: pfx("11.0.0.0/8"), Path: []uint32{200, 900}},
				{Prefix: pfx("12.0.0.0/8"), Path: []uint32{200}},
			},
		},
		{
			AS: 300, Port: 4,
			Anns: []chaostest.Announcement{
				{Prefix: pfx("11.0.0.0/8"), Path: []uint32{300}},
				{Prefix: pfx("13.0.0.0/8"), Path: []uint32{300}},
			},
		},
	}
}

// inboundTESpecs is the examples/inboundte workload: B is dual-homed
// across two switches (port 2 on s2, port 3 on s3) and splits inbound
// traffic by source prefix, which only works if both the policy rules
// and the trunk band survive on every switch.
func inboundTESpecs() []chaostest.PeerSpec {
	pfx := sdx.MustParsePrefix
	return []chaostest.PeerSpec{
		{
			AS: 100, Port: 1,
			Outbound: []sdx.Term{sdx.Fwd(sdx.MatchAll.DstPort(443), 300)},
		},
		{
			AS: 200, Port: 2, ExtraPorts: []sdx.PortID{3},
			Inbound: []sdx.Term{
				sdx.FwdPort(sdx.MatchAll.SrcIP(pfx("0.0.0.0/1")), 2),
				sdx.FwdPort(sdx.MatchAll.SrcIP(pfx("128.0.0.0/1")), 3),
			},
			Anns: []chaostest.Announcement{
				{Prefix: pfx("93.184.0.0/16"), Path: []uint32{200}},
			},
		},
		{
			AS: 300, Port: 4,
			Anns: []chaostest.Announcement{
				{Prefix: pfx("13.0.0.0/8"), Path: []uint32{300}},
			},
		},
	}
}

// fabricProbe is one end-to-end data-plane check: a packet injected on
// the remote fabric's ingress port must be delivered on the expected
// egress port, crossing trunk links where the switches differ.
type fabricProbe struct {
	desc    string
	ingress pkt.PortID
	egress  pkt.PortID
	prefix  iputil.Prefix // destination group: its VMAC tags the packet
	src     string
	dst     string
	dstPort uint16
}

func multiswitchProbes() []fabricProbe {
	pfx := sdx.MustParsePrefix
	return []fabricProbe{
		{desc: "web-via-B", ingress: 1, egress: 2, prefix: pfx("11.0.0.0/8"),
			src: "50.0.0.1", dst: "11.1.1.1", dstPort: 80},
		{desc: "default-via-C", ingress: 1, egress: 4, prefix: pfx("11.0.0.0/8"),
			src: "50.0.0.1", dst: "11.1.1.1", dstPort: 22},
	}
}

func inboundTEProbes() []fabricProbe {
	pfx := sdx.MustParsePrefix
	return []fabricProbe{
		{desc: "low-src-to-B1", ingress: 1, egress: 2, prefix: pfx("93.184.0.0/16"),
			src: "17.0.0.1", dst: "93.184.216.34", dstPort: 80},
		{desc: "high-src-to-B2", ingress: 1, egress: 3, prefix: pfx("93.184.0.0/16"),
			src: "212.0.0.1", dst: "93.184.216.34", dstPort: 80},
	}
}

// probeFabric pushes every probe through the remote fabric and waits for
// delivery on the expected egress port. Injections are retried: right
// after a heal a trunk may still be relinking, and chaos probes must
// tolerate loss, not reordering of state.
func probeFabric(t *testing.T, seed int64, fd *chaostest.FabricDeployment, probes []fabricProbe, label string) {
	t.Helper()
	var mu sync.Mutex
	got := make(map[string]pkt.PortID) // payload marker -> delivery port
	record := func(port pkt.PortID) func(pkt.Packet) {
		return func(p pkt.Packet) {
			mu.Lock()
			got[string(p.Payload)] = port
			mu.Unlock()
		}
	}
	seen := make(map[pkt.PortID]bool)
	for _, pr := range probes {
		if seen[pr.egress] {
			continue
		}
		seen[pr.egress] = true
		if err := fd.OnDeliver(pr.egress, record(pr.egress)); err != nil {
			t.Fatalf("seed %d: %s: %v", seed, label, err)
		}
	}
	compiled := fd.Ctrl.Compiled()
	for i, pr := range probes {
		gi, ok := compiled.GroupIdx[pr.prefix]
		if !ok {
			t.Fatalf("seed %d: %s probe %q: prefix %s has no forwarding group", seed, label, pr.desc, pr.prefix)
		}
		vmac := compiled.VMACs[gi]
		deadline := time.Now().Add(5 * time.Second)
		attempt := 0
		for {
			attempt++
			marker := fmt.Sprintf("%s/%s#%d", label, pr.desc, attempt)
			fd.InjectRemote(pr.ingress, pkt.Packet{
				EthType: pkt.EthTypeIPv4, DstMAC: vmac,
				SrcIP: sdx.MustParseAddr(pr.src), DstIP: sdx.MustParseAddr(pr.dst),
				Proto: pkt.ProtoTCP, SrcPort: 40000 + uint16(i), DstPort: pr.dstPort,
				Payload: []byte(marker),
			})
			var at pkt.PortID
			delivered := false
			for waited := 0; waited < 10 && !delivered; waited++ {
				time.Sleep(20 * time.Millisecond)
				mu.Lock()
				at, delivered = got[marker]
				mu.Unlock()
			}
			if delivered {
				if at != pr.egress {
					t.Fatalf("seed %d: %s probe %q delivered at port %d, want %d", seed, label, pr.desc, at, pr.egress)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: %s probe %q never delivered at port %d after %d attempts",
					seed, label, pr.desc, pr.egress, attempt)
			}
		}
	}
}

// runFabricChaos is runChaos for the multi-switch stack: a golden and a
// faulted run per seed, per-trunk and per-channel faults including at
// least one asymmetric partition, and post-heal state plus end-to-end
// delivery equal to the fault-free run. Failures carry the seed.
//
// Installed tables heal only as sdxd heals them: the continuous
// reconciler repairs flow-mods lost into a one-way partition, and the
// dataplane liveness prober must report every participant port pair
// healthy once forwarding is restored.
func runFabricChaos(t *testing.T, seed int64, specs []chaostest.PeerSpec, probes []fabricProbe, ports map[sdx.PortID]string) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	opts := chaostest.Options{
		ReconcileInterval: 25 * time.Millisecond,
		ProbeInterval:     40 * time.Millisecond,
	}

	goldenNet := simnet.New(seed)
	golden, err := chaostest.StartFabric(goldenNet, seed, specs, fabricTopo(ports), opts)
	if err != nil {
		t.Fatalf("seed %d: golden start: %v", seed, err)
	}
	if err := golden.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("seed %d: golden run: %v", seed, err)
	}
	if err := golden.VerifyTables(); err != nil {
		t.Fatalf("seed %d: golden run tables: %v", seed, err)
	}
	want := settleAndCapture(t, seed, golden)
	probeFabric(t, seed, golden, probes, "golden")
	golden.Stop()
	goldenNet.Close()

	n := simnet.New(seed)
	fd, err := chaostest.StartFabric(n, seed, specs, fabricTopo(ports), opts)
	if err != nil {
		t.Fatalf("seed %d: start: %v", seed, err)
	}
	if err := fd.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("seed %d: pre-fault convergence: %v", seed, err)
	}

	script := simnet.GenScript(seed, chaostest.Targets(specs, fabricTopo(ports)))
	kinds := script.Kinds()
	if len(kinds) < 4 {
		t.Fatalf("seed %d: schedule injects only %v", seed, kinds)
	}
	directed := false
	for _, k := range kinds {
		if k == simnet.StepPartitionDir {
			directed = true
		}
	}
	if !directed {
		t.Fatalf("seed %d: schedule has no asymmetric partition:\n%s", seed, script)
	}
	if err := script.Run(context.Background(), n); err != nil {
		t.Fatalf("seed %d: script: %v", seed, err)
	}
	n.ResetTainted()

	if err := fd.WaitConvergedTimed(30 * time.Second); err != nil {
		t.Fatalf("seed %d: post-heal convergence: %v\nreproduce with this schedule:\n%s", seed, err, script)
	}
	if err := fd.VerifyTables(); err != nil {
		t.Errorf("seed %d: post-heal tables: %v", seed, err)
	}
	compareStates(t, seed, settleAndCapture(t, seed, fd), want, script)
	probeFabric(t, seed, fd, probes, "faulted")

	reg := fd.Ctrl.Metrics()
	if c := reg.Histogram(chaostest.ConvergeMetric).Count(); c < 1 {
		t.Errorf("seed %d: no %s sample recorded for the post-heal convergence", seed, chaostest.ConvergeMetric)
	}
	if p := reg.Counter("reconcile.passes").Value(); p == 0 {
		t.Errorf("seed %d: reconciler loop never ran a pass", seed)
	}
	// The dataplane liveness probes must recover along with the tables:
	// every pair healthy once forwarding is restored.
	deadline := time.Now().Add(15 * time.Second)
	for !fd.Prb.Healthy() {
		if time.Now().After(deadline) {
			t.Errorf("seed %d: probe pairs still unhealthy after heal: %+v", seed, fd.Prb.Health())
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	fd.Stop()
	n.Close()
	waitGoroutines(t, seed, baseline)
}

// chaosFabricSeeds is the fabric seed matrix CI replays; disjoint from
// the single-switch matrix so the two jobs exercise different schedules.
var chaosFabricSeeds = []int64{5, 17, 29}

// TestChaosFabricConvergence: the multiswitch workload across a
// three-switch triangle fabric survives per-trunk, per-channel and
// per-session faults — including one-direction partitions — and
// converges back to the fault-free state through the reconciler, trunk
// band and cross-switch delivery included.
func TestChaosFabricConvergence(t *testing.T) {
	ports := map[sdx.PortID]string{1: "s1", 2: "s2", 4: "s3"}
	for _, seed := range chaosFabricSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runFabricChaos(t, seed, multiswitchSpecs(), multiswitchProbes(), ports)
		})
	}
}

// TestChaosFabricInboundTE: the inbound-TE workload with a participant
// dual-homed across two switches; inbound steering by source prefix must
// survive the chaos schedule on every switch it spans.
func TestChaosFabricInboundTE(t *testing.T) {
	if testing.Short() {
		t.Skip("second fabric workload skipped in -short mode")
	}
	ports := map[sdx.PortID]string{1: "s1", 2: "s2", 3: "s3", 4: "s3"}
	for _, seed := range chaosFabricSeeds[:1] {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runFabricChaos(t, seed, inboundTESpecs(), inboundTEProbes(), ports)
		})
	}
}
