package sdx

import (
	"net"
	"sync"
	"testing"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/iputil"
	"sdx/internal/openflow"
	"sdx/internal/pkt"
)

// TestDistributedFabric runs the paper's controller/switch split: the
// controller's compiled rules are mirrored over the control channel to a
// fabric switch in (what would be) another process, and the remote
// fabric forwards policy traffic identically to the local one.
func TestDistributedFabric(t *testing.T) {
	// Remote fabric switch behind a TCP control channel.
	remote := dataplane.NewSwitch("remote-fabric")
	remote.AddPort(1, "A1", nil)
	deliveredB := make(chan pkt.Packet, 8)
	deliveredC := make(chan pkt.Packet, 8)
	remote.AddPort(2, "B1", func(p pkt.Packet) { deliveredB <- p })
	remote.AddPort(4, "C1", func(p pkt.Packet) { deliveredC <- p })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer ln.Close()
	agent := openflow.NewAgent(remote)
	go agent.ListenAndServe(ln)

	client, err := openflow.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Start()

	// Controller with the Figure 1 style exchange.
	ctrl := New()
	for _, cfg := range []ParticipantConfig{
		{AS: 100, Name: "A", Ports: []PhysicalPort{{ID: 1}}},
		{AS: 200, Name: "B", Ports: []PhysicalPort{{ID: 2}}},
		{AS: 300, Name: "C", Ports: []PhysicalPort{{ID: 4}}},
	} {
		if _, err := ctrl.AddParticipant(cfg); err != nil {
			t.Fatal(err)
		}
	}
	ctrl.AddRuleMirror(openflow.Mirror{C: client})

	p1 := MustParsePrefix("11.0.0.0/8")
	announce := func(peer uint32, path ...uint32) {
		var port pkt.PortID
		switch peer {
		case 200:
			port = 2
		case 300:
			port = 4
		}
		ctrl.ApplyBatch(PeerUpdate{From: peer, Update: &bgp.Update{
			Attrs: &bgp.PathAttrs{ASPath: path, NextHop: iputil.Addr(PortIP(port))},
			NLRI:  []iputil.Prefix{p1},
		}})
	}
	announce(200, 200, 900, 901)
	announce(300, 300)
	if rep := ctrl.Recompile(CompilePolicy(100, nil, []Term{
		Fwd(MatchAll.DstPort(80), 200),
	})); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if err := client.Barrier(); err != nil {
		t.Fatal(err)
	}

	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	local := uint32(ctrl.Switch().Table().Len())
	if stats.Rules != local {
		t.Fatalf("remote table has %d rules, local has %d", stats.Rules, local)
	}

	// Forward through the REMOTE fabric only, using the group VMAC the
	// border router would have learned through the VNH advertisement.
	comp := ctrl.Compiled()
	gi, ok := comp.GroupIdx[p1]
	if !ok {
		t.Fatal("p1 not grouped")
	}
	web := pkt.Packet{
		EthType: pkt.EthTypeIPv4, DstMAC: comp.VMACs[gi],
		SrcIP: MustParseAddr("50.0.0.1"), DstIP: MustParseAddr("11.1.1.1"),
		Proto: pkt.ProtoTCP, DstPort: 80,
	}
	remote.Inject(1, web)
	select {
	case p := <-deliveredB:
		if p.DstMAC != core.PortMAC(2) {
			t.Fatalf("remote delivery dstmac %v", p.DstMAC)
		}
	case <-time.After(time.Second):
		t.Fatal("remote fabric did not forward policy traffic to B")
	}

	// Non-web traffic follows the default band to C, still remotely.
	ssh := web
	ssh.DstPort = 22
	remote.Inject(1, ssh)
	select {
	case <-deliveredC:
	case <-time.After(time.Second):
		t.Fatal("remote fabric did not forward default traffic to C")
	}

	// A fast-path update (withdrawal) propagates to the remote fabric.
	before := mustStats(t, client).Rules
	ctrl.ApplyBatch(PeerUpdate{From: 200, Update: &bgp.Update{Withdrawn: []iputil.Prefix{p1}}})
	if err := client.Barrier(); err != nil {
		t.Fatal(err)
	}
	after := mustStats(t, client).Rules
	if after <= before {
		t.Fatalf("fast-path rules did not reach the remote fabric: %d -> %d", before, after)
	}

	// And the background optimization shrinks it back.
	ctrl.Recompile()
	client.Barrier()
	final := mustStats(t, client).Rules
	if final >= after {
		t.Fatalf("recompile did not clean the remote fast band: %d -> %d", after, final)
	}
}

func mustStats(t *testing.T, c *openflow.Client) *openflow.StatsReply {
	t.Helper()
	s, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDistributedPacketInNormalForwarding checks the PACKET_IN path: a
// remote table miss reaches the controller, which applies normal L2
// forwarding and answers with a PACKET_OUT.
func TestDistributedPacketInNormalForwarding(t *testing.T) {
	remote := dataplane.NewSwitch("remote-fabric")
	remote.AddPort(1, "A1", nil)
	delivered := make(chan pkt.Packet, 1)
	remote.AddPort(2, "B1", func(p pkt.Packet) { delivered <- p })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer ln.Close()
	agent := openflow.NewAgent(remote)
	go agent.ListenAndServe(ln)

	client, err := openflow.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctrl := New()
	ctrl.AddParticipant(ParticipantConfig{AS: 100, Name: "A", Ports: []PhysicalPort{{ID: 1}}})
	ctrl.AddParticipant(ParticipantConfig{AS: 200, Name: "B", Ports: []PhysicalPort{{ID: 2}}})

	// Wire remote table misses into the controller's normal forwarding,
	// answered via PACKET_OUT — the ARP/L2 path of the real deployment.
	var mu sync.Mutex
	client.OnPacketIn = func(p pkt.Packet) {
		mu.Lock()
		defer mu.Unlock()
		if egress, ok := ctrl.NormalEgress(p); ok {
			client.PacketOut(egress, p)
		}
	}
	client.Start()
	if err := client.Echo(); err != nil {
		t.Fatal(err)
	}

	// Empty remote table; dstmac = B's real port MAC.
	remote.Inject(1, pkt.Packet{DstMAC: core.PortMAC(2), EthType: pkt.EthTypeIPv4})
	select {
	case p := <-delivered:
		if p.DstMAC != core.PortMAC(2) {
			t.Fatalf("delivered %v", p)
		}
	case <-time.After(time.Second):
		t.Fatal("PACKET_IN/PACKET_OUT round trip failed")
	}
}
