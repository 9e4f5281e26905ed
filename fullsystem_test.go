package sdx

// The capstone integration test: the complete SDX assembled the way the
// paper deployed it (Figure 3), with every component communicating over
// real protocols on loopback TCP —
//
//	border routers  --BGP-->  route server (controller)
//	controller      --control channel-->  fabric switch
//	border routers  --packets-->  fabric switch ports
//
// The controller never touches the fabric switch directly: rules travel
// through FLOW_MODs, table misses return as PACKET_INs, and routers learn
// virtual next hops through genuine BGP UPDATE messages. Traffic no policy
// touches never misses: the fabric's trunk band forwards it by MAC.

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"sdx/internal/arp"
	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/iputil"
	"sdx/internal/openflow"
	"sdx/internal/pkt"
)

// tcpRouter is a border router whose control plane is a real BGP session
// and whose data plane is a port on the remote fabric switch.
type tcpRouter struct {
	as   uint32
	port PhysicalPort
	sw   *dataplane.Switch // the fabric it injects into

	mu       sync.Mutex
	fib      map[Prefix]Addr
	received []pkt.Packet

	sess *bgp.Session
}

func dialRouter(t *testing.T, addr string, as uint32, port PhysicalPort, sw *dataplane.Switch) *tcpRouter {
	t.Helper()
	r := &tcpRouter{as: as, port: port, sw: sw, fib: make(map[Prefix]Addr)}
	sess, err := DialBGP(addr, bgp.SessionConfig{
		LocalAS:  as,
		RouterID: port.IP(),
		OnUpdate: func(_ *bgp.Session, u *bgp.Update) {
			r.mu.Lock()
			defer r.mu.Unlock()
			for _, p := range u.Withdrawn {
				delete(r.fib, p)
			}
			for _, p := range u.NLRI {
				r.fib[p] = u.Attrs.NextHop
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.sess = sess
	t.Cleanup(func() { sess.Close() })
	if err := sw.SetDeliver(port.ID, func(p pkt.Packet) {
		r.mu.Lock()
		r.received = append(r.received, p)
		r.mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *tcpRouter) announce(t *testing.T, prefix Prefix, path ...uint32) {
	t.Helper()
	err := r.sess.SendUpdate(&bgp.Update{
		Attrs: &bgp.PathAttrs{ASPath: path, NextHop: r.port.IP()},
		NLRI:  []iputil.Prefix{prefix},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// waitFIB polls until the router has a route for dst (BGP is async).
func (r *tcpRouter) waitFIB(t *testing.T, dst Addr) Addr {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		r.mu.Lock()
		var nh Addr
		found := false
		for p, v := range r.fib {
			if p.Contains(dst) {
				nh, found = v, true
			}
		}
		r.mu.Unlock()
		if found {
			return nh
		}
		if time.Now().After(deadline) {
			t.Fatalf("AS%d: no route for %v", r.as, dst)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// send resolves dst through the FIB and ARP (served by the controller's
// responder, as a real deployment would over the wire) and injects the
// packet on the router's fabric port.
func (r *tcpRouter) send(t *testing.T, resp *arp.Responder, dst Addr, dstPort uint16) bool {
	t.Helper()
	nh := r.waitFIB(t, dst)
	mac, ok := resp.Resolve(nh)
	if !ok {
		return false
	}
	r.sw.Inject(r.port.ID, pkt.Packet{
		SrcMAC: r.port.MAC(), DstMAC: mac, EthType: pkt.EthTypeIPv4,
		SrcIP: MustParseAddr("50.0.0.1"), DstIP: dst,
		Proto: pkt.ProtoTCP, SrcPort: 40000, DstPort: dstPort,
	})
	return true
}

func (r *tcpRouter) take(t *testing.T) []pkt.Packet {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.received
	r.received = nil
	return out
}

func TestFullSystemOverTCP(t *testing.T) {
	// --- fabric switch process -------------------------------------------
	fabric := dataplane.NewSwitch("fabric")
	for _, id := range []pkt.PortID{1, 2, 4} {
		if err := fabric.AddPort(id, "p", nil); err != nil {
			t.Fatal(err)
		}
	}
	ofLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer ofLn.Close()
	go openflow.NewAgent(fabric).ListenAndServe(ofLn)

	// --- controller process ----------------------------------------------
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
	bgpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The same Exchange sdxd runs: it programs the one-switch fabric
	// model's table, trunk band included, over the control channel.
	x, err := StartExchange(ctrl, ExchangeConfig{
		Listener: bgpLn,
		LocalAS:  64512,
		Dial: func(context.Context, string) (*openflow.Client, error) {
			return openflow.Dial(ofLn.Addr().String())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Stop()
	barrier := func() {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for {
			if c := x.Client(singleSwitch); c != nil && c.Barrier() == nil {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("control channel not up")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	barrier()

	// --- border router processes ----------------------------------------
	a := dialRouter(t, bgpLn.Addr().String(), 100, PhysicalPort{ID: 1}, fabric)
	b := dialRouter(t, bgpLn.Addr().String(), 200, PhysicalPort{ID: 2}, fabric)
	c := dialRouter(t, bgpLn.Addr().String(), 300, PhysicalPort{ID: 4}, fabric)

	p1 := MustParsePrefix("11.0.0.0/8")
	b.announce(t, p1, 200, 900, 901)
	c.announce(t, p1, 300)

	// A learns p1 over BGP; before any policy the next hop is C's real
	// port IP (best path, ungrouped prefix).
	if nh := a.waitFIB(t, MustParseAddr("11.1.1.1")); nh != PortIP(4) {
		t.Fatalf("pre-policy next hop %v, want C's port IP", nh)
	}

	// That traffic stays in the switch: the trunk band forwards it to C
	// by C's real MAC, so the controller sees no PACKET_IN.
	cMAC, ok := ctrl.ARP().Resolve(PortIP(4))
	if !ok {
		t.Fatal("ARP resolution failed for C's port IP")
	}
	packetIns := func() int64 { return ctrl.Metrics().Snapshot().Gauges["openflow.packet_ins"] }
	before := packetIns()
	fabric.Inject(1, pkt.Packet{
		SrcMAC: core.PortMAC(1), DstMAC: cMAC, EthType: pkt.EthTypeIPv4,
		SrcIP: MustParseAddr("50.0.0.1"), DstIP: MustParseAddr("11.1.1.1"),
		Proto: pkt.ProtoTCP, SrcPort: 40000, DstPort: 22,
	})
	deadline := time.Now().Add(3 * time.Second)
	for len(c.take(t)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("C never received A's pre-policy packet")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := packetIns() - before; n != 0 {
		t.Fatalf("pre-policy packet took %d PACKET_INs, want 0", n)
	}

	// AS A installs application-specific peering. The controller pushes
	// rules over the control channel and re-advertises p1 with a VNH.
	if rep := ctrl.Recompile(CompilePolicy(100, nil, []Term{
		Fwd(MatchAll.DstPort(80), 200),
	})); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	deadline = time.Now().Add(3 * time.Second)
	for {
		if nh := a.waitFIB(t, MustParseAddr("11.1.1.1")); VNHSubnet.Contains(nh) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for VNH advertisement over BGP")
		}
		time.Sleep(5 * time.Millisecond)
	}
	barrier()

	// Web traffic: A -> fabric -> B (policy). The packet traverses only
	// the remote switch programmed via FLOW_MODs.
	if !a.send(t, ctrl.ARP(), MustParseAddr("11.1.1.1"), 80) {
		t.Fatal("ARP resolution failed for the VNH")
	}
	got := b.take(t)
	if len(got) != 1 || got[0].DstMAC != core.PortMAC(2) {
		t.Fatalf("B received %v", got)
	}
	if n := len(c.take(t)); n != 0 {
		t.Fatalf("C received %d stray packets", n)
	}

	// Non-web traffic follows the BGP default to C.
	a.send(t, ctrl.ARP(), MustParseAddr("11.1.1.1"), 22)
	if got := c.take(t); len(got) != 1 {
		t.Fatalf("C received %v", got)
	}

	// B withdraws p1 over BGP: the fast path reprograms the remote
	// fabric, A re-learns a fresh VNH, and web traffic moves to C.
	if err := b.sess.SendUpdate(&bgp.Update{Withdrawn: []iputil.Prefix{p1}}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(3 * time.Second)
	moved := false
	for !moved && time.Now().Before(deadline) {
		barrier()
		a.send(t, ctrl.ARP(), MustParseAddr("11.1.1.1"), 80)
		if len(c.take(t)) == 1 {
			moved = true
		}
		b.take(t)
		time.Sleep(5 * time.Millisecond)
	}
	if !moved {
		t.Fatal("withdrawal did not move web traffic to C")
	}
}
