package sdx

import (
	"fmt"
	"net"
	"sync"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/iputil"
)

// handshakeTimeout bounds how long an accepted connection may take to
// complete the OPEN/KEEPALIVE exchange. Without it, a wedged or
// byte-dribbling transport would pin a handler goroutine (and block
// Close) indefinitely.
const handshakeTimeout = 10 * time.Second

// BGPServer accepts BGP sessions from participant border routers over
// TCP, the way the paper's participants peer with the SDX route server:
// received UPDATEs flow into the controller's update pipeline, and the
// controller's (VNH-rewritten) advertisements flow back over the session.
// A connecting router is identified by the AS number in its OPEN, which
// must belong to a registered participant. A reconnecting router
// displaces its previous session, and the controller is told about
// session life-cycle changes (PeerUp/PeerDown) so flapped routes age out
// instead of wedging.
type BGPServer struct {
	ctrl     *Controller
	localAS  uint32
	routerID iputil.Addr
	ln       net.Listener

	mu       sync.Mutex
	wg       sync.WaitGroup
	closed   bool
	conns    map[net.Conn]struct{} // accepted, pre-handshake
	sessions map[*bgp.Session]struct{}
	peers    map[uint32]*bgp.Session // current session per peer AS
	queue    *core.UpdateQueue       // optional coalescing ingestion queue
}

// UseIngestQueue routes received UPDATEs through the coalescing queue
// instead of applying each one synchronously: session reader goroutines
// enqueue (blocking only when the queue exerts backpressure) and the
// queue's drainer applies coalesced batches via ApplyBatch — the
// full-table-burst configuration. Call before the first session
// connects; the queue's lifecycle (Stop) stays with the caller.
func (s *BGPServer) UseIngestQueue(q *core.UpdateQueue) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queue = q
}

// ingestQueue returns the configured ingestion queue, or nil.
func (s *BGPServer) ingestQueue() *core.UpdateQueue {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue
}

// ingest applies one received UPDATE: through the queue when configured,
// synchronously otherwise.
func (s *BGPServer) ingest(from uint32, u *bgp.Update) {
	if q := s.ingestQueue(); q != nil {
		if err := q.Enqueue(from, u); err == nil {
			return
		}
		// Queue stopped under us: fall back to the synchronous path so
		// late in-flight updates are not dropped.
	}
	s.ctrl.ApplyBatch(PeerUpdate{From: from, Update: u})
}

// ListenBGP starts a route-server endpoint on addr (e.g. "127.0.0.1:0").
// localAS is the route server's own AS (IXP route servers convention-
// ally use a private AS).
func ListenBGP(ctrl *Controller, addr string, localAS uint32) (*BGPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serveBGP(ctrl, ln, localAS, nil), nil
}

// serveBGP runs a route-server endpoint on an existing listener, with
// the ingestion queue q (nil for none) attached before the first session
// can connect.
func serveBGP(ctrl *Controller, ln net.Listener, localAS uint32, q *core.UpdateQueue) *BGPServer {
	s := &BGPServer{
		ctrl: ctrl, localAS: localAS,
		routerID: MustParseAddr("172.0.255.254"),
		ln:       ln,
		conns:    make(map[net.Conn]struct{}),
		sessions: make(map[*bgp.Session]struct{}),
		peers:    make(map[uint32]*bgp.Session),
		queue:    q,
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listening address.
func (s *BGPServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting connections, terminates every established
// session with a CEASE notification (and every half-shaken connection
// outright), and waits for all handlers to exit. It does not trigger
// PeerDown route aging: a closing exchange is shutting down, not
// observing peer failures.
func (s *BGPServer) Close() error {
	s.mu.Lock()
	s.closed = true
	open := make([]*bgp.Session, 0, len(s.sessions))
	for sess := range s.sessions {
		open = append(open, sess)
	}
	raw := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		raw = append(raw, conn)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, conn := range raw {
		_ = conn.Close() // mid-handshake: nothing to say, just cut it
	}
	for _, sess := range open {
		// Close sends a best-effort CEASE; the session is torn down either way.
		_ = sess.Close()
	}
	s.wg.Wait()
	return err
}

func (s *BGPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

func (s *BGPServer) handle(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()

	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	sess, err := bgp.Establish(conn, bgp.SessionConfig{
		LocalAS:  s.localAS,
		RouterID: s.routerID,
		OnUpdate: func(sess *bgp.Session, u *bgp.Update) {
			s.ingest(sess.PeerAS(), u)
		},
		Metrics: s.ctrl.Metrics(),
		Tracer:  s.ctrl.Tracer(),
	})
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	if err != nil {
		return
	}
	_ = conn.SetDeadline(time.Time{})

	peerAS := sess.PeerAS()
	if _, ok := s.ctrl.Participant(peerAS); !ok {
		_ = sess.Close()
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = sess.Close()
		return
	}
	displaced := s.peers[peerAS]
	s.peers[peerAS] = sess
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	if displaced != nil {
		// The reconnect wins: the stale session (its transport is usually
		// already dead, it just has not noticed) is cut loose.
		_ = displaced.Close()
	}
	defer func() {
		s.mu.Lock()
		delete(s.sessions, sess)
		current := s.peers[peerAS] == sess
		if current {
			delete(s.peers, peerAS)
		}
		closed := s.closed
		s.mu.Unlock()
		// Only the peer's current session going down means the peer is
		// down; a displaced predecessor's teardown says nothing.
		if current && !closed {
			s.ctrl.PeerDown(peerAS)
		}
	}()

	// Stream the controller's advertisements to this session. The sink is
	// unregistered at teardown so reconnect cycles do not pile up dead
	// sinks.
	unregister, err := s.ctrl.OnRoute(peerAS, func(ad core.RouteAd) {
		select {
		case <-sess.Done():
			return
		default:
		}
		// A failed send means the connection died; the session's read
		// loop observes the same failure and tears the session down.
		_ = sess.SendUpdate(adToUpdate(ad))
	})
	if err != nil {
		_ = sess.Close()
		return
	}
	defer unregister()

	// A fresh session is a full table exchange (RFC 4271 §8): whatever the
	// peer's previous incarnation left in the Adj-RIB-In is flushed, and
	// the peer re-announces over this session. Updates the previous
	// session left in the ingestion queue are applied first, so the flush
	// replaces them rather than letting them drain in afterwards.
	if q := s.ingestQueue(); q != nil {
		q.Flush()
	}
	s.ctrl.PeerUp(peerAS)

	// Initial table transfer: everything the participant should know.
	for _, ad := range s.ctrl.RoutesFor(peerAS) {
		if err := sess.SendUpdate(adToUpdate(ad)); err != nil {
			_ = sess.Close()
			return
		}
	}
	sess.Start()
	<-sess.Done()
}

func adToUpdate(ad core.RouteAd) *bgp.Update {
	if ad.Withdraw {
		return &bgp.Update{Withdrawn: []iputil.Prefix{ad.Prefix}}
	}
	attrs := ad.Attrs.Clone()
	attrs.NextHop = ad.NextHop
	return &bgp.Update{Attrs: attrs, NLRI: []iputil.Prefix{ad.Prefix}}
}

// DialBGP connects a border router's BGP side to an SDX route server and
// returns the established session. The caller wires cfg.OnUpdate to its
// FIB before dialing.
func DialBGP(addr string, cfg bgp.SessionConfig) (*bgp.Session, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sdx: dialing route server: %w", err)
	}
	sess, err := bgp.Establish(conn, cfg)
	if err != nil {
		return nil, err
	}
	sess.Start()
	return sess, nil
}
