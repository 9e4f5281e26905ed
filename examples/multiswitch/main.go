// Multiswitch demonstrates §4.1's multi-switch exchange: the same
// compiled SDX policy distributed across a three-switch chain, with
// participants attached to different switches and traffic crossing
// trunk links transparently.
package main

import (
	"fmt"
	"log"

	"sdx"
	"sdx/internal/bgp"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
)

func main() {
	// Physical layout: A on s1, B on s2, C on s3; chain s1 - s2 - s3.
	fab, err := sdx.NewFabric(sdx.FabricTopology{
		Switches: []string{"s1", "s2", "s3"},
		Ports:    map[sdx.PortID]string{1: "s1", 2: "s2", 4: "s3"},
		Links: []sdx.FabricLink{
			{A: "s1", B: "s2", PortA: 100, PortB: 101},
			{A: "s2", B: "s3", PortA: 102, PortB: 103},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	x := sdx.New()
	for _, cfg := range []sdx.ParticipantConfig{
		{AS: 100, Name: "A", Ports: []sdx.PhysicalPort{{ID: 1}}},
		{AS: 200, Name: "B", Ports: []sdx.PhysicalPort{{ID: 2}}},
		{AS: 300, Name: "C", Ports: []sdx.PhysicalPort{{ID: 4}}},
	} {
		if _, err := x.AddParticipant(cfg); err != nil {
			log.Fatal(err)
		}
	}
	x.AddRuleMirror(fab)

	// Delivery observers on each participant port.
	for _, port := range []sdx.PortID{2, 4} {
		port := port
		if err := fab.SetDeliver(port, func(p pkt.Packet) {
			fmt.Printf("  delivered at port %d: %v\n", port, p)
		}); err != nil {
			log.Fatal(err)
		}
	}

	// B and C announce 11.0.0.0/8; A prefers C by path length and sends
	// web traffic via B by policy.
	p1 := sdx.MustParsePrefix("11.0.0.0/8")
	x.ApplyBatch(sdx.PeerUpdate{From: 200, Update: &bgp.Update{
		Attrs: &bgp.PathAttrs{ASPath: []uint32{200, 900, 901}, NextHop: sdx.PortIP(2)},
		NLRI:  []iputil.Prefix{p1},
	}}, sdx.PeerUpdate{From: 300, Update: &bgp.Update{
		Attrs: &bgp.PathAttrs{ASPath: []uint32{300}, NextHop: sdx.PortIP(4)},
		NLRI:  []iputil.Prefix{p1},
	}})
	rep := x.Recompile(sdx.CompilePolicy(100, nil, []sdx.Term{
		sdx.Fwd(sdx.MatchAll.DstPort(80), 200),
	}))
	if rep.Err != nil {
		log.Fatal(rep.Err)
	}
	fmt.Printf("compiled %d rules; distributed across the fabric: %d switch entries\n",
		rep.Rules, fab.TotalRules())

	// Tag packets the way A's border router would (VMAC from the VNH
	// advertisement) and push them in on switch s1.
	vmac := x.Compiled().VMACs[x.Compiled().GroupIdx[p1]]
	send := func(desc string, dstPort uint16) {
		fmt.Println(desc)
		fab.Inject(1, pkt.Packet{
			EthType: pkt.EthTypeIPv4, DstMAC: vmac,
			SrcIP: sdx.MustParseAddr("50.0.0.1"), DstIP: sdx.MustParseAddr("11.1.1.1"),
			Proto: pkt.ProtoTCP, SrcPort: 40000, DstPort: dstPort,
		})
	}
	send("web from A on s1 (policy: via B on s2, one trunk hop):", 80)
	send("ssh from A on s1 (default: via C on s3, two trunk hops):", 22)
}
