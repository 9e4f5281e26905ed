package openflow

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sdx/internal/dataplane"
	"sdx/internal/pkt"
	"sdx/internal/policy"
)

// Client is the controller side of the control channel: it programs a
// remote switch's flow table and receives its table-miss packets. Client
// is safe for concurrent use.
type Client struct {
	conn net.Conn

	// OnPacketIn, when non-nil, receives the remote switch's table-miss
	// packets (called from the client's reader goroutine). Set it before
	// Start.
	OnPacketIn func(pkt.Packet)

	sendMu sync.Mutex
	mu     sync.Mutex
	xid    uint32
	waits  map[uint32]chan Message

	flowMods   atomic.Uint64
	packetOuts atomic.Uint64
	packetIns  atomic.Uint64
	echoes     atomic.Uint64

	closeOnce sync.Once
	closed    chan struct{}
	err       error
}

// ChannelStats counts control-channel traffic through one client.
type ChannelStats struct {
	FlowMods   uint64 // FlowMod messages sent
	PacketOuts uint64 // PACKET_OUT messages sent
	PacketIns  uint64 // PACKET_IN messages received
	Echoes     uint64 // echo round trips completed
}

// ChannelStats returns a snapshot of the channel counters.
func (c *Client) ChannelStats() ChannelStats {
	return ChannelStats{
		FlowMods:   c.flowMods.Load(),
		PacketOuts: c.packetOuts.Load(),
		PacketIns:  c.packetIns.Load(),
		Echoes:     c.echoes.Load(),
	}
}

// NewClient performs the hello exchange on conn and returns a client
// ready for Start. The switch agent speaks first (it sends its hello on
// accept), so the client reads before writing — this also keeps the
// handshake deadlock-free over unbuffered in-memory pipes.
func NewClient(conn net.Conn) (*Client, error) {
	c := &Client{conn: conn, waits: make(map[uint32]chan Message), closed: make(chan struct{})}
	msg, err := ReadMessage(conn)
	if err != nil {
		_ = conn.Close() // handshake already failed; the original error wins
		return nil, err
	}
	hello, ok := msg.(*Hello)
	if !ok || hello.Version != ProtocolVersion {
		_ = conn.Close()
		return nil, fmt.Errorf("openflow: bad hello from switch")
	}
	if err := WriteMessage(conn, &Hello{Version: ProtocolVersion}); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return c, nil
}

// Dial connects to a switch agent at addr. The hello exchange is bounded
// by a deadline so a transport that dies mid-handshake cannot pin the
// caller (NewClient itself imposes none, for callers owning the conn).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	c, err := NewClient(conn)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return c, nil
}

// Start launches the reader goroutine dispatching PacketIns and replies.
func (c *Client) Start() { go c.readLoop() }

// Done is closed when the connection terminates.
func (c *Client) Done() <-chan struct{} { return c.closed }

// Err returns the terminating error after Done is closed (nil for a
// local Close).
func (c *Client) Err() error {
	<-c.closed
	return c.err
}

// Close terminates the connection.
func (c *Client) Close() error {
	c.shutdown(nil)
	return nil
}

func (c *Client) shutdown(err error) {
	c.closeOnce.Do(func() {
		//lint:ignore riblock published before close(c.closed); Err readers block on the channel, so the close is the ordering edge
		c.err = err
		close(c.closed)
		_ = c.conn.Close() // the channel is already down; nothing to do with a close error
		c.mu.Lock()
		for _, ch := range c.waits {
			close(ch)
		}
		c.waits = nil
		c.mu.Unlock()
	})
}

func (c *Client) readLoop() {
	for {
		msg, err := ReadMessage(c.conn)
		if err != nil {
			c.shutdown(err)
			return
		}
		switch m := msg.(type) {
		case *PacketIn:
			c.packetIns.Add(1)
			if c.OnPacketIn != nil {
				c.OnPacketIn(m.Packet)
			}
		case *BarrierReply:
			c.deliver(m.Xid, m)
		case *StatsReply:
			c.deliver(m.Xid, m)
		case *DumpReply:
			c.deliver(m.Xid, m)
		case *EchoReply:
			c.deliver(m.Xid, m)
		case *EchoRequest:
			if err := c.send(&EchoReply{Xid: m.Xid}); err != nil {
				// A reply we cannot write means the connection is gone.
				c.shutdown(err)
				return
			}
		case *Error:
			c.shutdown(m)
			return
		}
	}
}

func (c *Client) deliver(xid uint32, m Message) {
	c.mu.Lock()
	ch := c.waits[xid]
	delete(c.waits, xid)
	c.mu.Unlock()
	if ch != nil {
		ch <- m
		close(ch)
	}
}

func (c *Client) send(m Message) error {
	switch m.(type) {
	case *FlowMod:
		c.flowMods.Add(1)
	case *PacketOut:
		c.packetOuts.Add(1)
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	//lint:ignore lockblock sendMu exists solely to serialize concurrent writers on the conn; holding it across the write is the serialization, and no other lock is ever taken while it is held
	return WriteMessage(c.conn, m)
}

// replyTimeout bounds every request/reply round trip (Barrier, Stats,
// DumpFlows, Echo). A request written into a one-way partition never gets
// its reply while the channel itself stays up, and a caller waiting on it
// — the reconciler's serial loop, a shutdown waiting on that loop — would
// wedge for good. The bound sits orders of magnitude above a healthy
// round trip, so expiry means the reply is lost, not slow.
const replyTimeout = 5 * time.Second

// roundTrip sends a request carrying xid and waits for its reply, at most
// replyTimeout. A reply arriving after expiry finds no waiter and is
// dropped.
func (c *Client) roundTrip(xid uint32, m Message) (Message, error) {
	ch := make(chan Message, 1)
	c.mu.Lock()
	if c.waits == nil {
		c.mu.Unlock()
		return nil, net.ErrClosed
	}
	c.waits[xid] = ch
	c.mu.Unlock()
	if err := c.send(m); err != nil {
		c.forget(xid)
		return nil, err
	}
	timeout := time.NewTimer(replyTimeout)
	defer timeout.Stop()
	select {
	case reply, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("openflow: connection closed waiting for xid %d", xid)
		}
		return reply, nil
	case <-timeout.C:
		c.forget(xid)
		return nil, fmt.Errorf("openflow: no reply to xid %d within %v", xid, replyTimeout)
	}
}

// forget drops a request's reply slot.
func (c *Client) forget(xid uint32) {
	c.mu.Lock()
	delete(c.waits, xid)
	c.mu.Unlock()
}

func (c *Client) nextXid() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.xid++
	return c.xid
}

// Add installs rules alongside existing ones.
func (c *Client) Add(cookie uint64, rules []FlowRule) error {
	return c.send(&FlowMod{Op: OpAdd, Cookie: cookie, Rules: rules})
}

// Replace atomically swaps all rules carrying the cookie.
func (c *Client) Replace(cookie uint64, rules []FlowRule) error {
	return c.send(&FlowMod{Op: OpReplace, Cookie: cookie, Rules: rules})
}

// Delete removes all rules carrying the cookie.
func (c *Client) Delete(cookie uint64) error {
	return c.send(&FlowMod{Op: OpDelete, Cookie: cookie})
}

// FlushAll clears the remote table entirely, regardless of cookie. A
// reconnecting controller sends this before replaying rule state.
func (c *Client) FlushAll() error {
	return c.send(&FlowMod{Op: OpFlushAll})
}

// InstallClassifier replaces the cookie's band with a compiled classifier
// at the given priority base.
func (c *Client) InstallClassifier(cookie uint64, base int, cl policy.Classifier) error {
	return c.Replace(cookie, RulesFromClassifier(cl, base))
}

// PacketOut emits a packet on a remote switch port.
func (c *Client) PacketOut(port pkt.PortID, p pkt.Packet) error {
	return c.send(&PacketOut{Port: port, Packet: p})
}

// Inject offers a packet to the remote switch's forwarding pipeline as
// if it arrived on the port. Liveness probes enter the dataplane here.
func (c *Client) Inject(port pkt.PortID, p pkt.Packet) error {
	return c.send(&Inject{Port: port, Packet: p})
}

// Barrier blocks until every preceding FlowMod has been applied.
func (c *Client) Barrier() error {
	xid := c.nextXid()
	_, err := c.roundTrip(xid, &Barrier{Xid: xid})
	return err
}

// Stats fetches remote table statistics.
func (c *Client) Stats() (*StatsReply, error) {
	xid := c.nextXid()
	reply, err := c.roundTrip(xid, &StatsRequest{Xid: xid})
	if err != nil {
		return nil, err
	}
	stats, ok := reply.(*StatsReply)
	if !ok {
		return nil, fmt.Errorf("openflow: unexpected reply %T", reply)
	}
	return stats, nil
}

// DumpFlows fetches the remote switch's full installed table grouped by
// cookie — the reconciler's readback path: without it, drift on the far
// side of the control channel is invisible to the controller.
func (c *Client) DumpFlows() ([]FlowGroup, error) {
	xid := c.nextXid()
	reply, err := c.roundTrip(xid, &DumpRequest{Xid: xid})
	if err != nil {
		return nil, err
	}
	dump, ok := reply.(*DumpReply)
	if !ok {
		return nil, fmt.Errorf("openflow: unexpected reply %T", reply)
	}
	return dump.Groups, nil
}

// EntriesFromGroups flattens a flow dump into dataplane entries, the
// shape the reconciler diffs against intended tables.
func EntriesFromGroups(groups []FlowGroup) []*dataplane.FlowEntry {
	var out []*dataplane.FlowEntry
	for _, g := range groups {
		out = append(out, entriesFromRules(g.Rules, g.Cookie)...)
	}
	return out
}

// Echo round-trips a liveness probe.
func (c *Client) Echo() error {
	xid := c.nextXid()
	_, err := c.roundTrip(xid, &EchoRequest{Xid: xid})
	if err == nil {
		c.echoes.Add(1)
	}
	return err
}

// Mirror adapts the client to the dataplane rule-installation interface
// so a controller can program local and remote tables identically.
type Mirror struct{ C *Client }

// AddBatch implements rule mirroring for fast-band installs. The RuleSink
// interface is fire-and-forget: a send failure means the connection died,
// which the owner observes via Done() and handles by reconnecting (the
// controller replays full bands into a fresh mirror).
func (m Mirror) AddBatch(entries []*dataplane.FlowEntry) {
	_ = m.C.Add(cookieOf(entries), rulesFromEntries(entries))
}

// Replace implements band replacement.
func (m Mirror) Replace(cookie uint64, entries []*dataplane.FlowEntry) {
	_ = m.C.Replace(cookie, rulesFromEntries(entries))
}

// DeleteCookie implements band deletion.
func (m Mirror) DeleteCookie(cookie uint64) { _ = m.C.Delete(cookie) }

// FlushAll implements the controller's RuleFlusher: it clears the whole
// remote table so a resync replay starts from a known-empty state.
func (m Mirror) FlushAll() { _ = m.C.FlushAll() }

// Barrier implements the controller's RuleBarrier: it returns once the
// remote switch has applied every flow-mod sent before it.
func (m Mirror) Barrier() error { return m.C.Barrier() }

func cookieOf(entries []*dataplane.FlowEntry) uint64 {
	if len(entries) == 0 {
		return 0
	}
	return entries[0].Cookie
}

func rulesFromEntries(entries []*dataplane.FlowEntry) []FlowRule {
	out := make([]FlowRule, len(entries))
	for i, e := range entries {
		out[i] = FlowRule{Priority: int32(e.Priority), Match: e.Match, Actions: e.Actions}
	}
	return out
}
