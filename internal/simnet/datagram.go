package simnet

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"
)

// defaultReorderDelay is how long a held-back datagram lags when the
// profile leaves ReorderDelay zero.
const defaultReorderDelay = 30 * time.Millisecond

// DatagramPipe returns a directly connected unreliable-datagram pair:
// message boundaries are preserved, delivery is best-effort (profile
// drops and partitions silently eat datagrams, there is no backpressure
// and no EOF-before-drain guarantee), and the profile's ReorderEvery
// fault can deliver datagrams out of send order. It is the transport the
// liveness prober runs on in tests — a probe packet is exactly the kind
// of traffic that must survive loss and reordering without either being
// masked by a stream abstraction.
//
// Fault targeting mirrors Pipe: the first conn's endpoint name is the
// tag and the second's is tag+"-peer", so PartitionDir(tag, tag+"-peer")
// silently eats one direction while the reverse keeps delivering.
func (n *Network) DatagramPipe(tag string) (*DatagramConn, *DatagramConn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	id := n.nextID
	n.nextID++
	remote := tag + "-peer"

	ab := newDHalf(n, n.prof, mix(n.seed, id, 0), fmt.Sprintf("%s#%d>", tag, id))
	ba := newDHalf(n, n.prof, mix(n.seed, id, 1), fmt.Sprintf("%s#%d<", tag, id))
	ab.blackholed = func() bool { return n.blackholedDir(tag, tag, remote) }
	ba.blackholed = func() bool { return n.blackholedDir(tag, remote, tag) }

	c1 := &DatagramConn{n: n, id: id, tag: tag, rd: ba, wr: ab,
		local: simAddr(tag), remote: simAddr(remote)}
	c2 := &DatagramConn{n: n, id: id, tag: tag, rd: ab, wr: ba,
		local: simAddr(remote), remote: simAddr(tag)}
	c1.readDL.init()
	c2.readDL.init()
	n.dgrams = append(n.dgrams, c1)
	return c1, c2
}

// DatagramConn is one end of an unreliable datagram pipe. Send never
// blocks and never reports loss; Recv blocks until a datagram is due,
// the read deadline expires, or the peer closes with nothing buffered.
type DatagramConn struct {
	n   *Network
	id  int
	tag string

	rd, wr *dhalf

	readDL        deadline
	local, remote simAddr
	closeOnce     sync.Once
}

// Tag returns the fault-targeting tag the pipe was created with.
func (c *DatagramConn) Tag() string { return c.tag }

// LocalAddr returns this end's endpoint name.
func (c *DatagramConn) LocalAddr() string { return string(c.local) }

// RemoteAddr returns the peer's endpoint name.
func (c *DatagramConn) RemoteAddr() string { return string(c.remote) }

// Send queues one datagram toward the peer. The boundary is preserved:
// the peer receives exactly this payload or nothing (dropped datagrams
// vanish silently — the unreliable contract). The only errors are
// lifecycle ones (closed pipe, reset network).
func (c *DatagramConn) Send(b []byte) error { return c.wr.send(b) }

// Recv returns the next due datagram. Held-back (reordered) datagrams
// surface after their extra delay, which may be after datagrams sent
// later. Returns io.EOF once the peer has closed and the buffer is
// drained, os.ErrDeadlineExceeded past the read deadline.
func (c *DatagramConn) Recv() ([]byte, error) { return c.rd.recv(&c.readDL) }

// SetRecvDeadline bounds future (and pending) Recv calls. The zero time
// clears it.
func (c *DatagramConn) SetRecvDeadline(t time.Time) { c.readDL.set(t) }

// Close closes this end: our Recv fails, the peer drains then sees EOF.
func (c *DatagramConn) Close() error {
	c.closeOnce.Do(func() {
		c.wr.closeWriter()
		c.rd.closeReader()
	})
	return nil
}

// closePair tears down both directions (network teardown).
func (c *DatagramConn) closePair() {
	c.rd.closeWriter()
	c.rd.closeReader()
	c.wr.closeWriter()
	c.wr.closeReader()
}

// dgram is one in-flight datagram.
type dgram struct {
	data []byte
	due  time.Time
	seq  int64
}

// dhalf is one direction of a datagram pipe. Unlike the stream half it
// buffers whole datagrams sorted by delivery time, so a held-back
// datagram is naturally overtaken by later, earlier-due ones.
type dhalf struct {
	n          *Network
	prof       Profile
	label      string
	blackholed func() bool

	mu                    sync.Mutex
	rng                   *rand.Rand
	notify                chan struct{} // closed and replaced on every state change
	buf                   []dgram       // sorted by (due, seq)
	seq                   int64
	sOps                  int64
	nextDrop, nextReorder int64 // op indices, -1 = disabled
	wClosed, rClosed      bool
}

func newDHalf(n *Network, prof Profile, seed int64, label string) *dhalf {
	h := &dhalf{
		n: n, prof: prof, label: label,
		rng: rand.New(rand.NewSource(seed)), notify: make(chan struct{}),
		blackholed: func() bool { return false },
		nextDrop:   -1, nextReorder: -1,
	}
	if prof.DropEvery > 0 {
		h.nextDrop = h.draw(prof.DropEvery)
	}
	if prof.ReorderEvery > 0 {
		h.nextReorder = h.draw(prof.ReorderEvery)
	}
	return h
}

// draw matches half.draw: uniform on [1, 2*mean).
func (h *dhalf) draw(mean int64) int64 {
	if mean < 1 {
		mean = 1
	}
	return 1 + h.rng.Int63n(2*mean-1)
}

func (h *dhalf) broadcastLocked() {
	close(h.notify)
	h.notify = make(chan struct{})
}

func (h *dhalf) send(b []byte) error {
	h.mu.Lock()
	if h.wClosed || h.rClosed {
		h.mu.Unlock()
		return io.ErrClosedPipe
	}
	op := h.sOps
	h.sOps++

	// All fault decisions draw from the rng in send order, so the fault
	// *schedule* (which ops drop, which ops are held) is a pure function
	// of (seed, pipe creation index, direction, op index) — the property
	// the determinism test asserts via the trace.
	drop := h.blackholed()
	if h.nextDrop >= 0 && op >= h.nextDrop {
		h.nextDrop = op + h.draw(h.prof.DropEvery)
		h.trace("dgram-drop op=%d len=%d", op, len(b))
		drop = true
	}
	if drop {
		h.mu.Unlock()
		return nil
	}

	lat := h.prof.Latency
	if h.prof.Jitter > 0 {
		lat += time.Duration(h.rng.Int63n(int64(h.prof.Jitter)))
	}
	if h.nextReorder >= 0 && op >= h.nextReorder {
		h.nextReorder = op + h.draw(h.prof.ReorderEvery)
		hold := h.prof.ReorderDelay
		if hold <= 0 {
			hold = defaultReorderDelay
		}
		lat += hold
		h.trace("dgram-reorder op=%d hold=%s", op, hold)
	}

	d := dgram{
		data: append([]byte(nil), b...),
		due:  time.Now().Add(lat),
		seq:  op,
	}
	// Insert sorted by (due, seq): the earliest-due datagram delivers
	// first, which is exactly how a held-back one gets overtaken.
	i := sort.Search(len(h.buf), func(i int) bool {
		if h.buf[i].due.Equal(d.due) {
			return h.buf[i].seq > d.seq
		}
		return h.buf[i].due.After(d.due)
	})
	h.buf = append(h.buf, dgram{})
	copy(h.buf[i+1:], h.buf[i:])
	h.buf[i] = d
	h.broadcastLocked()
	h.mu.Unlock()
	return nil
}

func (h *dhalf) recv(dl *deadline) ([]byte, error) {
	for {
		h.mu.Lock()
		if h.rClosed {
			h.mu.Unlock()
			return nil, io.ErrClosedPipe
		}
		if isClosedChan(dl.wait()) {
			h.mu.Unlock()
			return nil, os.ErrDeadlineExceeded
		}
		if len(h.buf) > 0 {
			due := h.buf[0].due
			now := time.Now()
			if !due.After(now) {
				d := h.buf[0]
				h.buf = h.buf[1:]
				h.mu.Unlock()
				return d.data, nil
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
			return nil, io.EOF
		}
		notify := h.notify
		h.mu.Unlock()
		select {
		case <-notify:
		case <-dl.wait():
		}
	}
}

func (h *dhalf) trace(format string, args ...any) {
	h.n.record(h.label+" "+format, args...)
}

func (h *dhalf) closeWriter() {
	h.mu.Lock()
	if !h.wClosed {
		h.wClosed = true
		h.broadcastLocked()
	}
	h.mu.Unlock()
}

func (h *dhalf) closeReader() {
	h.mu.Lock()
	if !h.rClosed {
		h.rClosed = true
		h.buf = nil
		h.broadcastLocked()
	}
	h.mu.Unlock()
}
