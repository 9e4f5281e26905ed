// Package simnet is a deterministic fault-injection network for tests:
// an in-memory transport implementing net.Conn / net.Listener whose
// failure behaviour — latency, jitter, bandwidth caps, short reads and
// writes, byte corruption, silent blackholing, mid-stream resets,
// partitions and stalls — is driven entirely by a seeded PRNG, so any
// failure a test observes can be reproduced from its seed.
//
// The paper's deployment leaned on ExaBGP and hardware switches to
// survive messy real-world sessions; simnet is the reproduction's stand-in
// for that mess. It slots under the real BGP and OpenFlow substrate (both
// speak plain net.Conn), which is how the chaos harness drives the full
// SDX stack through scripted fault schedules.
//
// # Determinism
//
// Every random decision — corruption offsets, short-read/write points,
// drop points, jitter — is drawn from a PRNG derived from (seed, conn
// creation index, direction). Two runs with the same seed and the same
// connection creation order make byte-identical fault decisions. Under a
// concurrent workload the goroutine scheduler still reorders *when*
// faults land relative to application messages; schedule-level
// determinism (which faults, which targets, which windows) is preserved
// and is what the chaos harness asserts (see Script).
//
// # Fault model
//
// Profile faults are continuous processes attached to every connection at
// creation: mean-spaced corruption (single bit flips), short reads/writes
// (truncated but contract-correct: a short write returns n < len(b) with
// io.ErrShortWrite), silent drops (the writer sees success, the bytes
// vanish), latency/jitter/bandwidth shaping. Control faults are imposed
// on a running network: Reset tears a connection pair down with
// ErrReset on both ends, Stall freezes delivery for a window, Partition
// blackholes every write and refuses new dials until Heal, and
// PartitionDir severs a single direction between two named endpoints so
// half-open sessions (a peer that can hear but not speak) can be
// exercised deterministically. Corruption
// taints the pair (Tainted), letting a harness bounce connections that
// carried damaged bytes, the way an operator would bounce a session that
// desynced.
//
// Alongside the stream conns, DatagramPipe provides an unreliable
// message-boundary transport (silent loss, no backpressure) with one
// extra fault class streams cannot express: packet-level reordering
// (Profile.ReorderEvery / ReorderDelay). The liveness prober's tests
// run on it — probe traffic is exactly what must survive loss and
// reordering unmasked by a stream abstraction.
package simnet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ErrReset is returned from reads and writes on a connection torn down by
// fault injection, standing in for ECONNRESET.
var ErrReset = errors.New("simnet: connection reset by peer")

// Profile shapes every connection created on a Network. The zero value is
// fully transparent (no latency, no faults).
type Profile struct {
	// Latency delays each written chunk's delivery.
	Latency time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter) per chunk.
	Jitter time.Duration
	// BandwidthBPS serializes delivery at the given bytes/sec per
	// direction; 0 is unlimited.
	BandwidthBPS int64
	// CorruptEvery flips one random bit on average every CorruptEvery
	// bytes of stream; 0 disables.
	CorruptEvery int64
	// DropEvery silently blackholes one write on average every DropEvery
	// write calls; 0 disables.
	DropEvery int64
	// ShortReadEvery truncates one read on average every ShortReadEvery
	// read calls; 0 disables.
	ShortReadEvery int64
	// ShortWriteEvery truncates one write (returning n < len(b) with
	// io.ErrShortWrite) on average every ShortWriteEvery write calls; 0
	// disables.
	ShortWriteEvery int64
	// ReorderEvery holds back one datagram on average every ReorderEvery
	// sends, letting later datagrams overtake it — packet-level
	// reordering. Datagram pipes only (a byte stream cannot reorder
	// without corrupting itself); 0 disables.
	ReorderEvery int64
	// ReorderDelay is how long a held-back datagram is delayed beyond its
	// normal delivery time. Zero means a 30ms default.
	ReorderDelay time.Duration
}

// Network is a collection of simulated listeners and connections sharing
// one seed and one fault profile. All methods are safe
// for concurrent use.
type Network struct {
	seed int64
	prof Profile

	mu        sync.Mutex
	closed    bool
	nextID    int
	listeners map[string]*Listener
	pairs     []*Conn         // dial-side conn of every pair, in creation order
	dgrams    []*DatagramConn // first end of every datagram pipe
	partAll   bool
	partTag   map[string]bool
	partDir   map[string]map[string]bool // from -> to -> blackholed
	events    []string
}

// Option configures a Network.
type Option func(*Network)

// WithProfile sets the fault profile applied to every connection.
func WithProfile(p Profile) Option { return func(n *Network) { n.prof = p } }

// New returns a network whose every fault decision derives from seed.
func New(seed int64, opts ...Option) *Network {
	n := &Network{
		seed:      seed,
		listeners: make(map[string]*Listener),
		partTag:   make(map[string]bool),
		partDir:   make(map[string]map[string]bool),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Trace returns the fault events recorded so far, in application order.
// Per-connection-direction subsequences are deterministic for a given
// seed; interleaving across connections follows goroutine scheduling.
func (n *Network) Trace() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.events...)
}

func (n *Network) record(format string, args ...any) {
	n.mu.Lock()
	n.events = append(n.events, fmt.Sprintf(format, args...))
	n.mu.Unlock()
}

// blackholedDir reports whether writes on a connection tagged tag,
// flowing from endpoint from toward endpoint to, currently vanish
// (global partition, per-tag partition, or a directed partition covering
// exactly this direction).
func (n *Network) blackholedDir(tag, from, to string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.partAll || n.partTag[tag] || n.partDir[from][to]
}

// Listen registers a named endpoint ("rs", "fabric", ...). Dials to the
// same name connect to it.
func (n *Network) Listen(name string) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, net.ErrClosed
	}
	if _, dup := n.listeners[name]; dup {
		return nil, fmt.Errorf("simnet: listen %s: address in use", name)
	}
	l := &Listener{n: n, name: name, ch: make(chan *Conn, 64), done: make(chan struct{})}
	n.listeners[name] = l
	return l, nil
}

// Dial connects to a listening endpoint. The tag names the connection for
// targeted fault injection (Reset, Stall, SetCorrupt, PartitionTag,
// PartitionDir) and appears in the trace; a reconnecting client reuses
// its tag so scripted faults follow it across reconnects.
//
// The partition check, pair creation and delivery to the listener happen
// atomically with respect to Partition*/Heal*: a dial racing a partition
// either fails outright or yields a fully delivered pair — never a
// half-open conn the accept side cannot see.
func (n *Network) Dial(name, tag string) (net.Conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, net.ErrClosed
	}
	// A handshake needs both directions, so a directed partition either
	// way between the two endpoints blocks new dials.
	if n.partAll || n.partTag[tag] || n.partDir[tag][name] || n.partDir[name][tag] {
		n.mu.Unlock()
		return nil, fmt.Errorf("simnet: dial %s from %s: network unreachable", name, tag)
	}
	l := n.listeners[name]
	if l == nil {
		n.mu.Unlock()
		return nil, fmt.Errorf("simnet: dial %s: connection refused", name)
	}
	cd, ca := n.newPairLocked(tag, name)
	err := l.deliver(ca) //lint:ignore lockblock deliver is non-blocking: bounded backlog, never waits
	n.mu.Unlock()
	if err != nil {
		// The pair never left the building; close errors carry nothing.
		_ = cd.Close()
		_ = ca.Close()
		return nil, err
	}
	return cd, nil
}

// Pipe returns a directly connected pair (no listener), tagged for fault
// targeting like a dialed connection. For directed partitions the first
// conn's endpoint name is the tag and the second's is tag+"-peer".
func (n *Network) Pipe(tag string) (net.Conn, net.Conn) {
	n.mu.Lock()
	c1, c2 := n.newPairLocked(tag, tag+"-peer")
	n.mu.Unlock()
	return c1, c2
}

// newPairLocked builds both ends of a connection and registers the pair.
// Caller holds n.mu.
func (n *Network) newPairLocked(tag, remote string) (*Conn, *Conn) {
	id := n.nextID
	n.nextID++

	tainted := new(atomic.Bool)
	// Per-direction PRNG streams: same seed + same creation order =>
	// identical fault decisions, independently per direction.
	ab := newHalf(n, n.prof, tainted, mix(n.seed, id, 0), fmt.Sprintf("%s#%d>", tag, id))
	ba := newHalf(n, n.prof, tainted, mix(n.seed, id, 1), fmt.Sprintf("%s#%d<", tag, id))

	dialSide := &Conn{n: n, id: id, tag: tag, rd: ba, wr: ab, tainted: tainted,
		local: simAddr(tag), remote: simAddr(remote)}
	acceptSide := &Conn{n: n, id: id, tag: tag, rd: ab, wr: ba, tainted: tainted,
		local: simAddr(remote), remote: simAddr(tag)}
	dialSide.readDL.init()
	dialSide.writeDL.init()
	acceptSide.readDL.init()
	acceptSide.writeDL.init()
	// ab carries tag -> remote bytes, ba the reverse; each direction
	// consults its own (from, to) pair so PartitionDir can sever one
	// while the other keeps flowing.
	ab.blackholed = func() bool { return n.blackholedDir(tag, tag, remote) }
	ba.blackholed = func() bool { return n.blackholedDir(tag, remote, tag) }

	n.pairs = append(n.pairs, dialSide)
	return dialSide, acceptSide
}

// pairsWithTag snapshots the dial-side conns matching tag ("" = all).
func (n *Network) pairsWithTag(tag string) []*Conn {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []*Conn
	for _, c := range n.pairs {
		if tag == "" || c.tag == tag {
			out = append(out, c)
		}
	}
	return out
}

// Reset tears down every live connection tagged tag (both directions see
// ErrReset immediately) and returns how many pairs it hit.
func (n *Network) Reset(tag string) int {
	targets := n.pairsWithTag(tag)
	hit := 0
	for _, c := range targets {
		if c.resetPair() {
			hit++
		}
	}
	n.record("## reset tag=%s pairs=%d", tag, hit)
	return hit
}

// ResetTainted resets every pair that carried corrupted bytes — the
// harness's post-heal bounce of desynced sessions — and returns the count.
func (n *Network) ResetTainted() int {
	targets := n.pairsWithTag("")
	hit := 0
	for _, c := range targets {
		if c.tainted.Load() && c.resetPair() {
			hit++
		}
	}
	n.record("## reset-tainted pairs=%d", hit)
	return hit
}

// Stall freezes delivery on every live connection tagged tag for the
// given duration: bytes written keep accumulating but nothing
// is readable until the window passes.
func (n *Network) Stall(tag string, d time.Duration) int {
	until := time.Now().Add(d)
	targets := n.pairsWithTag(tag)
	for _, c := range targets {
		c.rd.stall(until)
		c.wr.stall(until)
	}
	n.record("## stall tag=%s dur=%s pairs=%d", tag, d, len(targets))
	return len(targets)
}

// SetCorrupt enables (mean > 0) or disables (mean <= 0) bit-flip
// corruption on every live connection tagged tag, flipping one bit on
// average every mean stream bytes from now on.
func (n *Network) SetCorrupt(tag string, mean int64) int {
	targets := n.pairsWithTag(tag)
	for _, c := range targets {
		c.rd.setCorrupt(mean)
		c.wr.setCorrupt(mean)
	}
	n.record("## corrupt tag=%s mean=%d pairs=%d", tag, mean, len(targets))
	return len(targets)
}

// PartitionAll blackholes every write on the network and fails every new
// dial until HealAll. Established connections stay up (and starve).
func (n *Network) PartitionAll() {
	n.mu.Lock()
	n.partAll = true
	n.mu.Unlock()
	n.record("## partition all")
}

// HealAll lifts a PartitionAll.
func (n *Network) HealAll() {
	n.mu.Lock()
	n.partAll = false
	n.mu.Unlock()
	n.record("## heal all")
}

// PartitionTag blackholes writes and dials for one tag only.
func (n *Network) PartitionTag(tag string) {
	n.mu.Lock()
	n.partTag[tag] = true
	n.mu.Unlock()
	n.record("## partition tag=%s", tag)
}

// HealTag lifts a PartitionTag.
func (n *Network) HealTag(tag string) {
	n.mu.Lock()
	delete(n.partTag, tag)
	n.mu.Unlock()
	n.record("## heal tag=%s", tag)
}

// PartitionDir blackholes one direction only: bytes flowing from the
// endpoint named from toward the endpoint named to silently vanish while
// the reverse direction keeps working — the classic asymmetric link
// failure (A hears B, B cannot hear A). Endpoint names are the dial tag
// on the dial side and the listener name on the accept side (for Pipe
// pairs, the tag and tag+"-peer"). New dials between the two endpoints
// fail in either direction while the partition holds, since a handshake
// needs both. Established connections stay up and starve one way.
func (n *Network) PartitionDir(from, to string) {
	n.mu.Lock()
	m := n.partDir[from]
	if m == nil {
		m = make(map[string]bool)
		n.partDir[from] = m
	}
	m[to] = true
	n.mu.Unlock()
	n.record("## partition dir %s>%s", from, to)
}

// HealDir lifts a PartitionDir.
func (n *Network) HealDir(from, to string) {
	n.mu.Lock()
	if m := n.partDir[from]; m != nil {
		delete(m, to)
		if len(m) == 0 {
			delete(n.partDir, from)
		}
	}
	n.mu.Unlock()
	n.record("## heal dir %s>%s", from, to)
}

// Close closes every listener and connection. Subsequent dials fail.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed = true
	lns := make([]*Listener, 0, len(n.listeners))
	for _, l := range n.listeners {
		lns = append(lns, l)
	}
	pairs := append([]*Conn(nil), n.pairs...)
	dgrams := append([]*DatagramConn(nil), n.dgrams...)
	n.mu.Unlock()
	for _, l := range lns {
		_ = l.Close()
	}
	for _, c := range pairs {
		c.closePair()
	}
	for _, c := range dgrams {
		c.closePair()
	}
}

// mix derives a sub-seed from (seed, connection index, stream index) with
// a splitmix64 finalizer so nearby inputs give uncorrelated streams.
func mix(seed int64, id, stream int) int64 {
	z := uint64(seed) + uint64(id)*0x9E3779B97F4A7C15 + uint64(stream)*0xD1B54A32D192ED03
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// simAddr is a named endpoint address.
type simAddr string

// Network implements net.Addr.
func (simAddr) Network() string { return "sim" }

// String implements net.Addr.
func (a simAddr) String() string { return string(a) }

// Listener accepts connections dialed to its name. It implements
// net.Listener.
type Listener struct {
	n    *Network
	name string
	ch   chan *Conn

	closeOnce sync.Once
	done      chan struct{}
}

func (l *Listener) deliver(c *Conn) error {
	select {
	case <-l.done:
		return fmt.Errorf("simnet: dial %s: connection refused", l.name)
	case l.ch <- c:
		return nil
	default:
		return fmt.Errorf("simnet: dial %s: backlog full", l.name)
	}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("simnet: accept %s: %w", l.name, net.ErrClosed)
	}
}

// Close implements net.Listener; pending and future Accepts fail.
func (l *Listener) Close() error {
	l.closeOnce.Do(func() {
		close(l.done)
		l.n.mu.Lock()
		if l.n.listeners[l.name] == l {
			delete(l.n.listeners, l.name)
		}
		l.n.mu.Unlock()
	})
	return nil
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return simAddr(l.name) }

// Conn is one end of a simulated connection. It implements net.Conn,
// including the full deadline contract (timeouts satisfy net.Error with
// Timeout() == true), so protocol code runs on it unmodified.
type Conn struct {
	n   *Network
	id  int
	tag string

	rd, wr  *half // rd: peer writes, we read; wr: we write, peer reads
	tainted *atomic.Bool

	readDL, writeDL deadline
	local, remote   simAddr
	closeOnce       sync.Once
}

// Tag returns the fault-targeting tag the connection was created with.
func (c *Conn) Tag() string { return c.tag }

// Tainted reports whether either direction carried corrupted bytes.
func (c *Conn) Tainted() bool { return c.tainted.Load() }

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) { return c.rd.read(p, &c.readDL) }

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) { return c.wr.write(p, &c.writeDL) }

// Close implements net.Conn: our pending I/O unblocks with an error, the
// peer drains buffered data then sees io.EOF.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.wr.closeWriter()
		c.rd.closeReader()
	})
	return nil
}

// closePair closes both directions outright (network teardown).
func (c *Conn) closePair() {
	c.rd.closeWriter()
	c.rd.closeReader()
	c.wr.closeWriter()
	c.wr.closeReader()
}

// resetPair aborts both directions with ErrReset; returns false when the
// pair was already dead.
func (c *Conn) resetPair() bool {
	a := c.rd.resetHalf()
	b := c.wr.resetHalf()
	return a || b
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.readDL.set(t)
	c.writeDL.set(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.readDL.set(t)
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.writeDL.set(t)
	return nil
}

// chunk is one written burst awaiting delivery.
type chunk struct {
	data []byte
	due  time.Time
}

// half is one direction of a pair: the writer appends delayed (and
// possibly damaged) chunks, the reader consumes them once due.
type half struct {
	n          *Network
	prof       Profile
	label      string
	tainted    *atomic.Bool
	blackholed func() bool

	mu         sync.Mutex
	rng        *rand.Rand
	notify     chan struct{} // closed and replaced on every state change
	buf        []chunk
	busyUntil  time.Time // bandwidth serialization horizon
	stallUntil time.Time
	wOff       int64 // stream offset of the next byte accepted from the writer
	wOps, rOps int64
	// Precomputed fault schedule positions (-1 = disabled): stream offset
	// for corruption, op indices for the rest.
	nextCorrupt, nextShortW, nextShortR, nextDrop int64
	wClosed, rClosed, isReset                     bool
}

func newHalf(n *Network, prof Profile, tainted *atomic.Bool, seed int64, label string) *half {
	h := &half{
		n: n, prof: prof, label: label, tainted: tainted,
		rng: rand.New(rand.NewSource(seed)), notify: make(chan struct{}),
		blackholed:  func() bool { return false },
		nextCorrupt: -1, nextShortW: -1, nextShortR: -1, nextDrop: -1,
	}
	if prof.CorruptEvery > 0 {
		h.nextCorrupt = h.draw(prof.CorruptEvery)
	}
	if prof.ShortWriteEvery > 0 {
		h.nextShortW = h.draw(prof.ShortWriteEvery)
	}
	if prof.ShortReadEvery > 0 {
		h.nextShortR = h.draw(prof.ShortReadEvery)
	}
	if prof.DropEvery > 0 {
		h.nextDrop = h.draw(prof.DropEvery)
	}
	return h
}

// draw samples an inter-arrival gap with the given mean (uniform on
// [1, 2*mean), mean-preserving enough for fault spacing).
func (h *half) draw(mean int64) int64 {
	if mean < 1 {
		mean = 1
	}
	return 1 + h.rng.Int63n(2*mean-1)
}

func (h *half) broadcastLocked() {
	close(h.notify)
	h.notify = make(chan struct{})
}

func (h *half) write(b []byte, dl *deadline) (int, error) {
	h.mu.Lock()
	switch {
	case h.isReset:
		h.mu.Unlock()
		return 0, ErrReset
	case h.wClosed, h.rClosed:
		h.mu.Unlock()
		return 0, io.ErrClosedPipe
	}
	if isClosedChan(dl.wait()) {
		h.mu.Unlock()
		return 0, os.ErrDeadlineExceeded
	}
	op := h.wOps
	h.wOps++

	// Silent blackhole: partition, or the profile's scheduled drop. The
	// writer sees success; the bytes (and their stream offsets) vanish.
	drop := h.blackholed()
	if h.nextDrop >= 0 && op >= h.nextDrop {
		h.nextDrop = op + h.draw(h.prof.DropEvery)
		h.trace("drop op=%d len=%d", op, len(b))
		drop = true
	}
	if drop {
		h.wOff += int64(len(b))
		h.mu.Unlock()
		return len(b), nil
	}

	n := len(b)
	short := false
	if h.nextShortW >= 0 && op >= h.nextShortW && n > 1 {
		h.nextShortW = op + h.draw(h.prof.ShortWriteEvery)
		n = 1 + int(h.rng.Int63n(int64(n-1)))
		h.trace("shortwrite op=%d accepted=%d of %d", op, n, len(b))
		short = true
	}

	data := append([]byte(nil), b[:n]...)
	for h.nextCorrupt >= 0 && h.nextCorrupt < h.wOff+int64(n) {
		if h.nextCorrupt >= h.wOff {
			i := h.nextCorrupt - h.wOff
			bit := uint(h.rng.Int63n(8))
			data[i] ^= 1 << bit
			h.tainted.Store(true)
			h.trace("corrupt off=%d bit=%d", h.nextCorrupt, bit)
		}
		h.nextCorrupt += h.draw(h.prof.CorruptEvery)
	}

	now := time.Now()
	start := now
	if h.busyUntil.After(start) {
		start = h.busyUntil
	}
	var ser time.Duration
	if h.prof.BandwidthBPS > 0 {
		ser = time.Duration(int64(n) * int64(time.Second) / h.prof.BandwidthBPS)
	}
	lat := h.prof.Latency
	if h.prof.Jitter > 0 {
		lat += time.Duration(h.rng.Int63n(int64(h.prof.Jitter)))
	}
	h.busyUntil = start.Add(ser)
	h.buf = append(h.buf, chunk{data: data, due: h.busyUntil.Add(lat)})
	h.wOff += int64(n)
	h.broadcastLocked()
	h.mu.Unlock()
	if short {
		return n, io.ErrShortWrite
	}
	return n, nil
}

func (h *half) read(p []byte, dl *deadline) (int, error) {
	for {
		h.mu.Lock()
		switch {
		case h.isReset:
			h.mu.Unlock()
			return 0, ErrReset
		case h.rClosed:
			h.mu.Unlock()
			return 0, io.ErrClosedPipe
		}
		if isClosedChan(dl.wait()) {
			h.mu.Unlock()
			return 0, os.ErrDeadlineExceeded
		}
		if len(h.buf) > 0 {
			due := h.buf[0].due
			if h.stallUntil.After(due) {
				due = h.stallUntil
			}
			now := time.Now()
			if !due.After(now) {
				ck := &h.buf[0]
				n := copy(p, ck.data)
				if h.nextShortR >= 0 && h.rOps >= h.nextShortR && n > 1 {
					h.nextShortR = h.rOps + h.draw(h.prof.ShortReadEvery)
					n = 1 + int(h.rng.Int63n(int64(n-1)))
					h.trace("shortread op=%d returned=%d", h.rOps, n)
				}
				h.rOps++
				ck.data = ck.data[n:]
				if len(ck.data) == 0 {
					h.buf = h.buf[1:]
				}
				h.mu.Unlock()
				return n, nil
			}
			notify := h.notify
			h.mu.Unlock()
			t := time.NewTimer(due.Sub(now))
			select {
			case <-t.C:
			case <-notify:
			case <-dl.wait():
			}
			t.Stop()
			continue
		}
		if h.wClosed {
			h.mu.Unlock()
			return 0, io.EOF
		}
		notify := h.notify
		h.mu.Unlock()
		select {
		case <-notify:
		case <-dl.wait():
		}
	}
}

func (h *half) trace(format string, args ...any) {
	h.n.record(h.label+" "+format, args...)
}

// closeWriter marks the writer side closed: peer reads drain then EOF.
func (h *half) closeWriter() {
	h.mu.Lock()
	if !h.wClosed {
		h.wClosed = true
		h.broadcastLocked()
	}
	h.mu.Unlock()
}

// closeReader marks the reader side closed: reads and peer writes fail.
func (h *half) closeReader() {
	h.mu.Lock()
	if !h.rClosed {
		h.rClosed = true
		h.buf = nil
		h.broadcastLocked()
	}
	h.mu.Unlock()
}

// resetHalf aborts the direction: all pending and future I/O returns
// ErrReset. Returns false when the direction was already closed or reset.
func (h *half) resetHalf() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.isReset || (h.wClosed && h.rClosed) {
		return false
	}
	h.isReset = true
	h.buf = nil
	h.broadcastLocked()
	return true
}

func (h *half) stall(until time.Time) {
	h.mu.Lock()
	if until.After(h.stallUntil) {
		h.stallUntil = until
	}
	h.broadcastLocked()
	h.mu.Unlock()
}

func (h *half) setCorrupt(mean int64) {
	h.mu.Lock()
	h.prof.CorruptEvery = mean
	if mean > 0 {
		h.nextCorrupt = h.wOff + h.draw(mean)
	} else {
		h.nextCorrupt = -1
	}
	h.mu.Unlock()
}

// deadline implements the net.Pipe deadline pattern: an expiring timer
// closes a channel that pending I/O selects on; os.ErrDeadlineExceeded
// satisfies net.Error with Timeout() == true, which is what arms the BGP
// hold timer.
type deadline struct {
	mu     sync.Mutex
	timer  *time.Timer
	cancel chan struct{}
}

func (d *deadline) init() { d.cancel = make(chan struct{}) }

func (d *deadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timer != nil && !d.timer.Stop() {
		//lint:ignore lockblock the timer already fired, so its AfterFunc is mid-close(cancel); this receive completes as soon as that close lands (bounded, net.Pipe's own deadline uses the same pattern)
		<-d.cancel // wait for the in-flight expiry to finish closing
	}
	d.timer = nil
	closed := isClosedChan(d.cancel)
	if t.IsZero() {
		if closed {
			d.cancel = make(chan struct{})
		}
		return
	}
	if dur := time.Until(t); dur > 0 {
		if closed {
			d.cancel = make(chan struct{})
		}
		cancel := d.cancel
		d.timer = time.AfterFunc(dur, func() { close(cancel) })
		return
	}
	if !closed {
		close(d.cancel)
	}
}

func (d *deadline) wait() chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cancel
}

func isClosedChan(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}
