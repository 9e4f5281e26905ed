package dataplane

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sdx/internal/pkt"
)

// PortStats counts traffic through one switch port.
type PortStats struct {
	RxPackets, TxPackets uint64
	RxBytes, TxBytes     uint64
}

type port struct {
	id   pkt.PortID
	name string
	// deliver is read by every forwarding goroutine after the switch's
	// lock is released and replaced by SetDeliver, hence atomic; nil
	// means a counting sink.
	deliver atomic.Pointer[func(pkt.Packet)]
	rxPkts  atomic.Uint64
	txPkts  atomic.Uint64
	rxBytes atomic.Uint64
	txBytes atomic.Uint64
}

// Switch is a software SDN switch: packets injected on a port traverse the
// flow table and are delivered to the destination ports' handlers. A
// table miss invokes the PacketIn callback (the controller channel).
// Switch is safe for concurrent injection.
//
// Injection comes in three flavours: Inject (synchronous, one packet),
// InjectBatch (synchronous, amortized over a batch with pooled output
// slabs), and InjectAsync (queued to the ingress port's worker goroutine
// when StartWorkers is active — per-port sharding means two ports never
// contend on processing, only inside the shared flow table: its log and
// engine are read through atomic pointers, but every lookup takes the
// mutex of one of the megaflow cache's 16 shards, picked by header hash).
type Switch struct {
	name  string
	table *FlowTable

	mu     sync.RWMutex
	ports  map[pkt.PortID]*port
	queues map[pkt.PortID]chan pkt.Packet // non-nil while workers run

	// PacketIn, when non-nil, receives table-miss packets.
	PacketIn func(pkt.Packet)

	// miss is the stable table-miss callback handed to ProcessBatch, so
	// the batched path never allocates a closure per batch.
	miss func(pkt.Packet)

	drops     atomic.Uint64
	packetIns atomic.Uint64

	outPool sync.Pool // *[]pkt.Packet slabs for InjectBatch
}

// NewSwitch returns a switch with an empty flow table.
func NewSwitch(name string) *Switch {
	s := &Switch{name: name, table: NewFlowTable(), ports: make(map[pkt.PortID]*port)}
	s.miss = func(p pkt.Packet) {
		s.packetIns.Add(1)
		if s.PacketIn != nil {
			s.PacketIn(p)
		}
	}
	s.outPool.New = func() any {
		sl := make([]pkt.Packet, 0, 256)
		return &sl
	}
	return s
}

// Name returns the switch's name.
func (s *Switch) Name() string { return s.name }

// Table returns the switch's flow table.
func (s *Switch) Table() *FlowTable { return s.table }

// AddPort registers a port; deliver is called (synchronously, from the
// injecting goroutine) for every packet the switch outputs on the port.
// A nil deliver makes the port a sink that only counts.
func (s *Switch) AddPort(id pkt.PortID, name string, deliver func(pkt.Packet)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.ports[id]; dup {
		return fmt.Errorf("dataplane: duplicate port %d on %s", id, s.name)
	}
	pt := &port{id: id, name: name}
	pt.setDeliver(deliver)
	s.ports[id] = pt
	return nil
}

// SetDeliver replaces a port's delivery handler (e.g. when a border
// router attaches to an already-registered port).
func (s *Switch) SetDeliver(id pkt.PortID, deliver func(pkt.Packet)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	pt, ok := s.ports[id]
	if !ok {
		return fmt.Errorf("dataplane: no port %d on %s", id, s.name)
	}
	pt.setDeliver(deliver)
	return nil
}

func (pt *port) setDeliver(deliver func(pkt.Packet)) {
	if deliver == nil {
		pt.deliver.Store(nil)
		return
	}
	pt.deliver.Store(&deliver)
}

// emit counts q as transmitted on the port and hands it to the port's
// delivery handler, if any.
func (pt *port) emit(q pkt.Packet) {
	pt.txPkts.Add(1)
	pt.txBytes.Add(uint64(q.FrameLen()))
	if d := pt.deliver.Load(); d != nil {
		(*d)(q)
	}
}

// RemovePort deregisters a port.
func (s *Switch) RemovePort(id pkt.PortID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.ports, id)
}

// PortIDs returns the registered port IDs in ascending order.
func (s *Switch) PortIDs() []pkt.PortID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]pkt.PortID, 0, len(s.ports))
	for id := range s.ports {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Inject offers a packet to the switch as if it arrived on ingress. The
// packet's InPort is overwritten with ingress. Outputs are delivered
// synchronously; the return value is the number of packets emitted.
func (s *Switch) Inject(ingress pkt.PortID, p pkt.Packet) int {
	s.mu.RLock()
	in := s.ports[ingress]
	s.mu.RUnlock()
	if in == nil {
		s.drops.Add(1)
		return 0
	}
	in.rxPkts.Add(1)
	in.rxBytes.Add(uint64(p.FrameLen()))
	p.InPort = ingress

	outs := s.table.Process(p)
	if outs == nil {
		// Table miss (Process returns a non-nil empty slice when a drop
		// rule matched): hand the packet to the controller.
		s.packetIns.Add(1)
		if s.PacketIn != nil {
			s.PacketIn(p)
		}
		return 0
	}
	emitted := 0
	for _, q := range outs {
		if s.deliverOut(q) {
			emitted++
		}
	}
	return emitted
}

// deliverOut routes one table-output packet to its egress port,
// updating counters; it reports whether the packet reached a registered
// port.
func (s *Switch) deliverOut(q pkt.Packet) bool {
	// Action application stored the egress port in InPort.
	egress := q.InPort
	s.mu.RLock()
	out := s.ports[egress]
	s.mu.RUnlock()
	if out == nil {
		s.drops.Add(1)
		return false
	}
	out.emit(q)
	return true
}

// processBatch is the shared batched datapath: ingress counters, the
// table's batched lookup/apply into the reused out slab, then egress
// delivery. It returns the extended slab and the number of packets that
// reached a registered port. in is mutated (InPort is stamped).
func (s *Switch) processBatch(ingress pkt.PortID, in []pkt.Packet, out []pkt.Packet) ([]pkt.Packet, int) {
	s.mu.RLock()
	pt := s.ports[ingress]
	s.mu.RUnlock()
	if pt == nil {
		s.drops.Add(uint64(len(in)))
		return out, 0
	}
	var rxBytes uint64
	for i := range in {
		rxBytes += uint64(in[i].FrameLen())
		in[i].InPort = ingress
	}
	pt.rxPkts.Add(uint64(len(in)))
	pt.rxBytes.Add(rxBytes)
	start := len(out)
	out = s.table.ProcessBatch(in, out, s.miss)
	emitted := 0
	for i := start; i < len(out); i++ {
		if s.deliverOut(out[i]) {
			emitted++
		}
	}
	return out, emitted
}

// InjectBatch offers a batch of packets arriving on one ingress port,
// processing them through the batched datapath with a pooled output
// slab. Each packet's InPort is overwritten with ingress (the slice is
// mutated in place). It returns the number of packets emitted.
func (s *Switch) InjectBatch(ingress pkt.PortID, ps []pkt.Packet) int {
	slab := s.outPool.Get().(*[]pkt.Packet)
	out, emitted := s.processBatch(ingress, ps, (*slab)[:0])
	*slab = out[:0]
	s.outPool.Put(slab)
	return emitted
}

// workerBatch is how many queued packets one port worker drains per
// ProcessBatch call.
const workerBatch = 64

// StartWorkers shards packet processing by ingress port: every port
// registered at call time gets a queue of the given depth (default 256)
// and a dedicated worker goroutine that drains it in batches of up to
// workerBatch through the zero-alloc batched datapath, with in/out
// slabs reused for the worker's lifetime. While workers run,
// InjectAsync enqueues instead of processing inline. The returned stop
// function halts every worker and waits for them; packets still queued
// at stop are dropped. Ports added after StartWorkers fall back to
// synchronous injection.
func (s *Switch) StartWorkers(depth int) (stop func()) {
	if depth <= 0 {
		depth = 256
	}
	queues := make(map[pkt.PortID]chan pkt.Packet)
	s.mu.Lock()
	for id := range s.ports {
		queues[id] = make(chan pkt.Packet, depth)
	}
	s.queues = queues
	s.mu.Unlock()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for id, q := range queues {
		wg.Add(1)
		go func(id pkt.PortID, q chan pkt.Packet) {
			defer wg.Done()
			s.portWorker(id, q, done)
		}(id, q)
	}
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		wg.Wait()
		s.mu.Lock()
		s.queues = nil
		s.mu.Unlock()
	}
}

// portWorker drains one port's queue in batches. The in/out slabs live
// for the worker's lifetime, so the steady-state path allocates nothing.
func (s *Switch) portWorker(id pkt.PortID, q chan pkt.Packet, done chan struct{}) {
	in := make([]pkt.Packet, 0, workerBatch)
	out := make([]pkt.Packet, 0, 4*workerBatch)
	for {
		select {
		case <-done:
			return
		case p := <-q:
			in = append(in[:0], p)
		gather:
			for len(in) < cap(in) {
				select {
				case p := <-q:
					in = append(in, p)
				default:
					break gather
				}
			}
			out, _ = s.processBatch(id, in, out[:0])
		}
	}
}

// InjectAsync offers a packet on ingress via the port's worker queue.
// It reports whether the packet was accepted: a full queue drops the
// packet (counted in Drops), and a port without a worker — workers not
// started, or the port added later — falls back to synchronous Inject.
func (s *Switch) InjectAsync(ingress pkt.PortID, p pkt.Packet) bool {
	s.mu.RLock()
	q := s.queues[ingress]
	s.mu.RUnlock()
	if q == nil {
		s.Inject(ingress, p)
		return true
	}
	select {
	case q <- p:
		return true
	default:
		s.drops.Add(1)
		return false
	}
}

// Output emits a packet directly on a port, bypassing the flow table (the
// data-plane half of an OpenFlow PACKET_OUT).
func (s *Switch) Output(egress pkt.PortID, p pkt.Packet) bool {
	s.mu.RLock()
	out := s.ports[egress]
	s.mu.RUnlock()
	if out == nil {
		s.drops.Add(1)
		return false
	}
	p.InPort = egress
	out.emit(p)
	return true
}

// Stats returns counters for one port.
func (s *Switch) Stats(id pkt.PortID) (PortStats, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pt, ok := s.ports[id]
	if !ok {
		return PortStats{}, false
	}
	return PortStats{
		RxPackets: pt.rxPkts.Load(),
		TxPackets: pt.txPkts.Load(),
		RxBytes:   pt.rxBytes.Load(),
		TxBytes:   pt.txBytes.Load(),
	}, true
}

// Drops returns the count of packets lost to unknown ports.
func (s *Switch) Drops() uint64 { return s.drops.Load() }

// PacketIns returns the count of table-miss packets handed to the
// controller channel.
func (s *Switch) PacketIns() uint64 { return s.packetIns.Load() }
