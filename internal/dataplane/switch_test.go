package dataplane

import (
	"sync"
	"sync/atomic"
	"testing"

	"sdx/internal/pkt"
)

func newTestSwitch(t *testing.T) (*Switch, map[pkt.PortID]*[]pkt.Packet) {
	t.Helper()
	sw := NewSwitch("test")
	sinks := make(map[pkt.PortID]*[]pkt.Packet)
	var mu sync.Mutex
	for _, id := range []pkt.PortID{1, 2, 3} {
		buf := &[]pkt.Packet{}
		sinks[id] = buf
		id := id
		if err := sw.AddPort(id, "p", func(p pkt.Packet) {
			mu.Lock()
			*sinks[id] = append(*sinks[id], p)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	return sw, sinks
}

func TestSwitchForwards(t *testing.T) {
	sw, sinks := newTestSwitch(t)
	sw.Table().Add(&FlowEntry{
		Priority: 1,
		Match:    pkt.MatchAll.InPort(1).DstPort(80),
		Actions:  []pkt.Action{pkt.Output(2)},
	})
	n := sw.Inject(1, pkt.Packet{DstPort: 80, Payload: []byte("x")})
	if n != 1 {
		t.Fatalf("Inject emitted %d", n)
	}
	if got := *sinks[2]; len(got) != 1 || got[0].DstPort != 80 {
		t.Fatalf("sink 2: %v", got)
	}
	rx, _ := sw.Stats(1)
	tx, _ := sw.Stats(2)
	wantBytes := uint64(pkt.Packet{Payload: []byte("x")}.FrameLen())
	if rx.RxPackets != 1 || rx.RxBytes != wantBytes || tx.TxPackets != 1 {
		t.Fatalf("stats: %+v / %+v", rx, tx)
	}
}

func TestSwitchOverridesInPort(t *testing.T) {
	sw, sinks := newTestSwitch(t)
	sw.Table().Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll.InPort(1), Actions: []pkt.Action{pkt.Output(3)}})
	// Caller lies about InPort; switch must use the ingress argument.
	sw.Inject(1, pkt.Packet{InPort: 99})
	if len(*sinks[3]) != 1 {
		t.Fatal("packet should match on real ingress port")
	}
}

func TestSwitchMulticast(t *testing.T) {
	sw, sinks := newTestSwitch(t)
	sw.Table().Add(&FlowEntry{
		Priority: 1, Match: pkt.MatchAll,
		Actions: []pkt.Action{pkt.Output(2), pkt.Output(3)},
	})
	if n := sw.Inject(1, pkt.Packet{}); n != 2 {
		t.Fatalf("emitted %d", n)
	}
	if len(*sinks[2]) != 1 || len(*sinks[3]) != 1 {
		t.Fatal("both sinks should receive the packet")
	}
}

func TestSwitchTableMissPacketIn(t *testing.T) {
	sw, _ := newTestSwitch(t)
	var missed []pkt.Packet
	sw.PacketIn = func(p pkt.Packet) { missed = append(missed, p) }
	if n := sw.Inject(1, pkt.Packet{DstPort: 80}); n != 0 {
		t.Fatalf("emitted %d on empty table", n)
	}
	if len(missed) != 1 || missed[0].InPort != 1 {
		t.Fatalf("PacketIn: %v", missed)
	}
}

func TestSwitchDropRuleNoPacketIn(t *testing.T) {
	sw, _ := newTestSwitch(t)
	sw.Table().Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll})
	called := false
	sw.PacketIn = func(pkt.Packet) { called = true }
	sw.Inject(1, pkt.Packet{})
	if called {
		t.Fatal("matched drop rule must not trigger PacketIn")
	}
}

func TestSwitchUnknownPorts(t *testing.T) {
	sw, _ := newTestSwitch(t)
	sw.Table().Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(99)}})
	if n := sw.Inject(1, pkt.Packet{}); n != 0 {
		t.Fatalf("emitted %d to unknown port", n)
	}
	if sw.Drops() != 1 {
		t.Fatalf("Drops = %d", sw.Drops())
	}
	// Injecting on an unknown port also counts as a drop.
	sw.Inject(77, pkt.Packet{})
	if sw.Drops() != 2 {
		t.Fatalf("Drops = %d", sw.Drops())
	}
}

func TestSwitchOutput(t *testing.T) {
	sw, sinks := newTestSwitch(t)
	if !sw.Output(2, pkt.Packet{DstPort: 53}) {
		t.Fatal("Output to known port should succeed")
	}
	if len(*sinks[2]) != 1 {
		t.Fatal("sink should receive PACKET_OUT")
	}
	if sw.Output(99, pkt.Packet{}) {
		t.Fatal("Output to unknown port should fail")
	}
}

func TestSwitchDuplicatePort(t *testing.T) {
	sw := NewSwitch("s")
	if err := sw.AddPort(1, "a", nil); err != nil {
		t.Fatal(err)
	}
	if err := sw.AddPort(1, "b", nil); err == nil {
		t.Fatal("duplicate port must error")
	}
	sw.RemovePort(1)
	if err := sw.AddPort(1, "c", nil); err != nil {
		t.Fatal("re-add after remove should succeed")
	}
	ids := sw.PortIDs()
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("PortIDs = %v", ids)
	}
}

func TestSwitchConcurrentInjection(t *testing.T) {
	sw := NewSwitch("s")
	var count atomicCounter
	sw.AddPort(1, "in", nil)
	sw.AddPort(2, "out", func(pkt.Packet) { count.Add(1) })
	sw.Table().Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(2)}})

	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sw.Inject(1, pkt.Packet{})
			}
		}()
	}
	wg.Wait()
	if got := count.Load(); got != workers*per {
		t.Fatalf("delivered %d, want %d", got, workers*per)
	}
	st, _ := sw.Stats(2)
	if st.TxPackets != workers*per {
		t.Fatalf("TxPackets = %d", st.TxPackets)
	}
}

type atomicCounter struct {
	mu sync.Mutex
	n  uint64
}

func (c *atomicCounter) Add(d uint64) { c.mu.Lock(); c.n += d; c.mu.Unlock() }
func (c *atomicCounter) Load() uint64 { c.mu.Lock(); defer c.mu.Unlock(); return c.n }

func TestSwitchInjectBatch(t *testing.T) {
	sw, sinks := newTestSwitch(t)
	sw.Table().Add(&FlowEntry{Priority: 2, Match: pkt.MatchAll.InPort(1).DstPort(80), Actions: []pkt.Action{pkt.Output(2)}})
	sw.Table().Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll.InPort(1), Actions: []pkt.Action{pkt.Output(3)}})
	batch := make([]pkt.Packet, 10)
	for i := range batch {
		if i%2 == 0 {
			batch[i].DstPort = 80
		}
	}
	if n := sw.InjectBatch(1, batch); n != 10 {
		t.Fatalf("InjectBatch emitted %d, want 10", n)
	}
	if len(*sinks[2]) != 5 || len(*sinks[3]) != 5 {
		t.Fatalf("sinks: %d/%d, want 5/5", len(*sinks[2]), len(*sinks[3]))
	}
	st, _ := sw.Stats(1)
	if st.RxPackets != 10 {
		t.Fatalf("RxPackets = %d", st.RxPackets)
	}
}

func TestSwitchInjectBatchMiss(t *testing.T) {
	sw, _ := newTestSwitch(t)
	var misses atomicCounter
	sw.PacketIn = func(pkt.Packet) { misses.Add(1) }
	sw.InjectBatch(1, make([]pkt.Packet, 7))
	if misses.Load() != 7 {
		t.Fatalf("PacketIn saw %d misses, want 7", misses.Load())
	}
	if sw.PacketIns() != 7 {
		t.Fatalf("PacketIns = %d", sw.PacketIns())
	}
}

// TestSwitchWorkers: per-port workers drain async injections through the
// batched datapath; stop() joins every worker (goroutine-leak safe) and
// is idempotent.
func TestSwitchWorkers(t *testing.T) {
	sw := NewSwitch("w")
	var got atomicCounter
	done := make(chan struct{})
	const total = 4 * 500
	if err := sw.AddPort(1, "in-a", nil); err != nil {
		t.Fatal(err)
	}
	if err := sw.AddPort(2, "in-b", nil); err != nil {
		t.Fatal(err)
	}
	if err := sw.AddPort(9, "out", func(p pkt.Packet) {
		got.Add(1)
		if got.Load() == total {
			close(done)
		}
	}); err != nil {
		t.Fatal(err)
	}
	sw.Table().Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(9)}})

	stop := sw.StartWorkers(0)
	defer stop()
	var wg sync.WaitGroup
	for _, ingress := range []pkt.PortID{1, 2} {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(ingress pkt.PortID) {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					for !sw.InjectAsync(ingress, pkt.Packet{}) {
					}
				}
			}(ingress)
		}
	}
	wg.Wait()
	<-done
	if got.Load() != total {
		t.Fatalf("delivered %d, want %d", got.Load(), total)
	}
	stop()
	stop() // idempotent
	// After stop, async injection falls back to the synchronous path.
	if !sw.InjectAsync(1, pkt.Packet{}) {
		t.Fatal("post-stop InjectAsync should fall back to Inject")
	}
	if got.Load() != total+1 {
		t.Fatalf("fallback not delivered: %d", got.Load())
	}
}

func TestSwitchInjectAsyncWithoutWorkers(t *testing.T) {
	sw, sinks := newTestSwitch(t)
	sw.Table().Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(2)}})
	if !sw.InjectAsync(1, pkt.Packet{}) {
		t.Fatal("InjectAsync without workers must fall back to Inject")
	}
	if len(*sinks[2]) != 1 {
		t.Fatalf("sink 2: %d packets", len(*sinks[2]))
	}
}

// TestSetDeliverConcurrentWithInjectBatch: a border router may attach to
// a port while the fabric is forwarding to it. The handler swap must be
// race-free (run under -race) and lose no packet: each one emitted goes
// to exactly one of the handlers.
func TestSetDeliverConcurrentWithInjectBatch(t *testing.T) {
	sw := NewSwitch("test")
	var a, b atomic.Uint64
	if err := sw.AddPort(1, "in", nil); err != nil {
		t.Fatal(err)
	}
	if err := sw.AddPort(2, "out", func(pkt.Packet) { a.Add(1) }); err != nil {
		t.Fatal(err)
	}
	sw.Table().Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(2)}})

	const batches = 200
	swapped := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-swapped:
				return
			default:
			}
			h := func(pkt.Packet) { a.Add(1) }
			if i%2 == 0 {
				h = func(pkt.Packet) { b.Add(1) }
			}
			if err := sw.SetDeliver(2, h); err != nil {
				t.Error(err)
				return
			}
			sw.Output(2, pkt.Packet{})
		}
	}()
	emitted := 0
	ps := make([]pkt.Packet, 64)
	for i := 0; i < batches; i++ {
		emitted += sw.InjectBatch(1, ps)
	}
	close(swapped)
	<-done
	tx, _ := sw.Stats(2)
	if emitted != batches*len(ps) || a.Load()+b.Load() != tx.TxPackets {
		t.Fatalf("emitted %d of %d; handlers saw %d+%d of %d transmitted", emitted, batches*len(ps), a.Load(), b.Load(), tx.TxPackets)
	}
}
