// Package router simulates a participant's BGP border router attached to
// the SDX fabric (§4.2's multi-stage FIB, stage one): it learns routes
// from the SDX route server, maintains a forwarding table keyed by
// destination prefix, resolves BGP next hops to MAC addresses through the
// exchange's ARP responder, and tags outgoing packets with the resolved
// destination MAC — the virtual MAC when the next hop is a virtual next
// hop, which is exactly how unmodified routers end up tagging packets
// with forwarding-equivalence-class IDs.
package router

import (
	"fmt"
	"sync"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/rs"
)

// BorderRouter is one simulated edge router with a single fabric port.
// Participants with several ports run one BorderRouter per port.
type BorderRouter struct {
	ctrl *core.Controller
	as   uint32
	port core.PhysicalPort

	mu       sync.Mutex
	fib      iputil.Trie // prefix -> next-hop IP (iputil.Addr)
	received []pkt.Packet

	// OnDeliver, when non-nil, observes every packet the fabric delivers
	// to this router (called synchronously from the injecting goroutine).
	OnDeliver func(pkt.Packet)
}

// Attach creates a border router for participant as on one of its fabric
// ports and wires it to the controller: it receives the SDX's route
// advertisements and the fabric's packet deliveries.
func Attach(ctrl *core.Controller, as uint32, port core.PhysicalPort) (*BorderRouter, error) {
	p, ok := ctrl.Participant(as)
	if !ok {
		return nil, fmt.Errorf("router: unknown participant AS%d", as)
	}
	if !p.HasPort(port.ID) {
		return nil, fmt.Errorf("router: port %d does not belong to AS%d", port.ID, as)
	}
	r := &BorderRouter{ctrl: ctrl, as: as, port: port}
	if _, err := ctrl.OnRoute(as, r.handleAd); err != nil {
		return nil, err
	}
	// Initial table transfer: a router attaching to a running exchange
	// learns the current (VNH-rewritten) routes immediately, like a BGP
	// session coming up.
	for _, ad := range ctrl.RoutesFor(as) {
		r.handleAd(ad)
	}
	if err := ctrl.Switch().SetDeliver(port.ID, r.deliver); err != nil {
		return nil, err
	}
	return r, nil
}

// AS returns the router's AS number.
func (r *BorderRouter) AS() uint32 { return r.as }

// Port returns the router's fabric port.
func (r *BorderRouter) Port() core.PhysicalPort { return r.port }

// handleAd applies one SDX route advertisement to the FIB.
func (r *BorderRouter) handleAd(ad core.RouteAd) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ad.Withdraw {
		r.fib.Delete(ad.Prefix)
		return
	}
	r.fib.Insert(ad.Prefix, ad.NextHop)
}

func (r *BorderRouter) deliver(p pkt.Packet) {
	r.mu.Lock()
	r.received = append(r.received, p)
	cb := r.OnDeliver
	r.mu.Unlock()
	if cb != nil {
		cb(p)
	}
}

// Received returns (a copy of) every packet delivered to this router.
func (r *BorderRouter) Received() []pkt.Packet {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]pkt.Packet(nil), r.received...)
}

// ClearReceived discards the receive log.
func (r *BorderRouter) ClearReceived() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.received = nil
}

// FIBLen returns the number of FIB entries.
func (r *BorderRouter) FIBLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fib.Len()
}

// Lookup returns the FIB next hop for a destination address.
func (r *BorderRouter) Lookup(dst iputil.Addr) (iputil.Addr, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.fib.Lookup(dst)
	if !ok {
		return 0, false
	}
	return v.(iputil.Addr), true
}

// Announce originates a BGP route through the SDX route server. The AS
// path defaults to just the router's own AS; pass the full path (nearest
// first, starting with this AS) to simulate transit routes.
func (r *BorderRouter) Announce(prefix iputil.Prefix, asPath ...uint32) core.UpdateResult {
	if len(asPath) == 0 {
		asPath = []uint32{r.as}
	}
	u := &bgp.Update{
		Attrs: &bgp.PathAttrs{ASPath: asPath, NextHop: r.port.IP()},
		NLRI:  []iputil.Prefix{prefix},
	}
	return r.ctrl.ApplyBatch(rs.PeerUpdate{From: r.as, Update: u})
}

// Withdraw retracts a previously announced prefix.
func (r *BorderRouter) Withdraw(prefix iputil.Prefix) core.UpdateResult {
	return r.ctrl.ApplyBatch(rs.PeerUpdate{From: r.as, Update: &bgp.Update{Withdrawn: []iputil.Prefix{prefix}}})
}

// Send pushes one packet through the router into the fabric: the FIB maps
// the destination to a next hop, ARP resolves the next hop to a MAC
// (virtual or real), and the packet enters the fabric on the router's
// port with the resolved destination MAC. It returns false when the
// destination has no route or the next hop does not resolve.
func (r *BorderRouter) Send(p pkt.Packet) bool {
	nh, ok := r.Lookup(p.DstIP)
	if !ok {
		return false
	}
	mac, ok := r.ctrl.ARP().Resolve(nh)
	if !ok {
		return false
	}
	p.SrcMAC = r.port.MAC()
	p.DstMAC = mac
	if p.EthType == 0 {
		p.EthType = pkt.EthTypeIPv4
	}
	r.ctrl.InjectFromPort(r.port.ID, p)
	return true
}

// SendIPv4 is a convenience wrapper building a TCP/IPv4 packet.
func (r *BorderRouter) SendIPv4(src, dst iputil.Addr, srcPort, dstPort uint16, payload []byte) bool {
	return r.Send(pkt.Packet{
		EthType: pkt.EthTypeIPv4,
		SrcIP:   src,
		DstIP:   dst,
		Proto:   pkt.ProtoTCP,
		SrcPort: srcPort,
		DstPort: dstPort,
		Payload: payload,
	})
}
