package sdx

import (
	"sync"
	"testing"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/iputil"
)

func listenForTest(t *testing.T, ctrl *Controller) *BGPServer {
	t.Helper()
	srv, err := ListenBGP(ctrl, "127.0.0.1:0", 64512)
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func newTwoPartyExchange(t *testing.T) *Controller {
	t.Helper()
	ctrl := New()
	for _, cfg := range []ParticipantConfig{
		{AS: 100, Name: "A", Ports: []PhysicalPort{{ID: 1}}},
		{AS: 200, Name: "B", Ports: []PhysicalPort{{ID: 2}}},
	} {
		if _, err := ctrl.AddParticipant(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return ctrl
}

func TestBGPServerSessionFlow(t *testing.T) {
	ctrl := newTwoPartyExchange(t)
	srv := listenForTest(t, ctrl)

	type recv struct {
		mu   sync.Mutex
		upds []*bgp.Update
	}
	var ra recv
	sessA, err := DialBGP(srv.Addr(), bgp.SessionConfig{
		LocalAS: 100, RouterID: 1,
		OnUpdate: func(_ *bgp.Session, u *bgp.Update) {
			ra.mu.Lock()
			ra.upds = append(ra.upds, u)
			ra.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sessA.Close()
	if sessA.PeerAS() != 64512 {
		t.Fatalf("route server AS = %d", sessA.PeerAS())
	}

	sessB, err := DialBGP(srv.Addr(), bgp.SessionConfig{LocalAS: 200, RouterID: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sessB.Close()

	// B announces a prefix over real BGP; A must learn it through the
	// route server with B's port IP as next hop (no policies yet).
	prefix := MustParsePrefix("20.0.0.0/8")
	err = sessB.SendUpdate(&bgp.Update{
		Attrs: &bgp.PathAttrs{ASPath: []uint32{200}, NextHop: PortIP(2)},
		NLRI:  []iputil.Prefix{prefix},
	})
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		ra.mu.Lock()
		n := len(ra.upds)
		ra.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for advertisement at A")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ra.mu.Lock()
	got := ra.upds[0]
	ra.mu.Unlock()
	if len(got.NLRI) != 1 || got.NLRI[0] != prefix {
		t.Fatalf("A received %v", got)
	}
	if got.Attrs.NextHop != PortIP(2) {
		t.Fatalf("next hop %v, want B's port IP (ungrouped prefix)", got.Attrs.NextHop)
	}

	// With a policy covering the prefix, the re-advertised next hop moves
	// into the VNH subnet.
	if rep := ctrl.Recompile(CompilePolicy(100, nil, []Term{
		Fwd(MatchAll.DstPort(80), 200),
	})); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	deadline = time.Now().Add(3 * time.Second)
	for {
		ra.mu.Lock()
		var vnhSeen bool
		for _, u := range ra.upds {
			if len(u.NLRI) == 1 && u.NLRI[0] == prefix && VNHSubnet.Contains(u.Attrs.NextHop) {
				vnhSeen = true
			}
		}
		ra.mu.Unlock()
		if vnhSeen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for VNH re-advertisement")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBGPServerRejectsUnknownParticipant(t *testing.T) {
	ctrl := newTwoPartyExchange(t)
	srv := listenForTest(t, ctrl)
	sess, err := DialBGP(srv.Addr(), bgp.SessionConfig{LocalAS: 999, RouterID: 9})
	if err != nil {
		return // rejected during handshake: also acceptable
	}
	select {
	case <-sess.Done():
		// The server closed the unknown participant's session.
	case <-time.After(3 * time.Second):
		t.Fatal("unknown participant session should be closed")
	}
}

func TestBGPServerInitialTableTransfer(t *testing.T) {
	ctrl := newTwoPartyExchange(t)
	// Seed a route before anyone connects.
	prefix := MustParsePrefix("20.0.0.0/8")
	ctrl.ApplyBatch(PeerUpdate{From: 200, Update: &bgp.Update{
		Attrs: &bgp.PathAttrs{ASPath: []uint32{200}, NextHop: PortIP(2)},
		NLRI:  []iputil.Prefix{prefix},
	}})
	srv := listenForTest(t, ctrl)

	got := make(chan *bgp.Update, 4)
	sess, err := DialBGP(srv.Addr(), bgp.SessionConfig{
		LocalAS: 100, RouterID: 1,
		OnUpdate: func(_ *bgp.Session, u *bgp.Update) { got <- u },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	select {
	case u := <-got:
		if len(u.NLRI) != 1 || u.NLRI[0] != prefix {
			t.Fatalf("initial transfer: %v", u)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timeout waiting for initial table transfer")
	}
}

// TestBGPServerPeerUpFlushesQueuedUpdates: updates a dead session left in
// the ingestion queue must not survive the fresh session's full table
// exchange. B1 announces P and closes while P still sits in the queue (it
// never drains on its own here); B2 then connects, and after its initial
// table the queue is flushed: P belonged to the dead session, so A must
// not see it.
func TestBGPServerPeerUpFlushesQueuedUpdates(t *testing.T) {
	ctrl := newTwoPartyExchange(t)
	seed := MustParsePrefix("10.0.0.0/8")
	ctrl.ApplyBatch(PeerUpdate{From: 100, Update: &bgp.Update{
		Attrs: &bgp.PathAttrs{ASPath: []uint32{100}, NextHop: PortIP(1)},
		NLRI:  []iputil.Prefix{seed},
	}})
	srv := listenForTest(t, ctrl)
	q := core.NewUpdateQueue(ctrl, core.QueueConfig{})
	defer q.Stop()
	defer q.Hold()() // B1's update never drains on its own
	srv.UseIngestQueue(q)

	b1, err := DialBGP(srv.Addr(), bgp.SessionConfig{LocalAS: 200, RouterID: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := MustParsePrefix("20.0.0.0/8")
	if err := b1.SendUpdate(&bgp.Update{
		Attrs: &bgp.PathAttrs{ASPath: []uint32{200}, NextHop: PortIP(2)},
		NLRI:  []iputil.Prefix{p},
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for q.Stats().Enqueued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for B1's update to reach the queue")
		}
		time.Sleep(time.Millisecond)
	}
	b1.Close()

	got := make(chan *bgp.Update, 16)
	b2, err := DialBGP(srv.Addr(), bgp.SessionConfig{
		LocalAS: 200, RouterID: 2,
		OnUpdate: func(_ *bgp.Session, u *bgp.Update) {
			select {
			case got <- u:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	// Only the initial table carries A's seed route; the session's sink
	// may deliver other advertisements before it.
	for seen := false; !seen; {
		select {
		case u := <-got:
			seen = len(u.NLRI) == 1 && u.NLRI[0] == seed
		case <-time.After(3 * time.Second):
			t.Fatal("timeout waiting for B2's initial table")
		}
	}

	q.Flush()
	if r, ok := ctrl.RouteServer().BestRoute(100, p); ok {
		t.Fatalf("A sees %v from the dead session", r)
	}
}
