package core

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/dataplane"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/rs"
)

// laggingMirror is a remote table whose operations land late: while held,
// operations queue and only a Barrier applies them, and a Barrier blocks
// until the test releases it.
type laggingMirror struct {
	table *dataplane.FlowTable

	mu      sync.Mutex
	held    bool
	pending []func()
	sent    []sentOp

	entered chan struct{} // receives once per Barrier call
	release chan struct{} // a held Barrier returns after a receive
	err     error         // what Barrier reports
}

func newLaggingMirror() *laggingMirror {
	return &laggingMirror{
		table:   dataplane.NewFlowTable(),
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
}

// sentOp is one operation as the controller sent it.
type sentOp struct {
	op     string
	cookie uint64
	at     time.Time
}

func (m *laggingMirror) do(op string, cookie uint64, apply func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sent = append(m.sent, sentOp{op, cookie, time.Now()})
	if m.held {
		m.pending = append(m.pending, apply)
		return
	}
	apply()
}

func clones(es []*dataplane.FlowEntry) []*dataplane.FlowEntry {
	out := make([]*dataplane.FlowEntry, len(es))
	for i, e := range es {
		out[i] = e.Clone()
	}
	return out
}

func (m *laggingMirror) AddBatch(es []*dataplane.FlowEntry) {
	es = clones(es)
	m.do("add", es[0].Cookie, func() { m.table.AddBatch(es) })
}

func (m *laggingMirror) Replace(cookie uint64, es []*dataplane.FlowEntry) {
	es = clones(es)
	m.do("replace", cookie, func() { m.table.Replace(cookie, es) })
}

func (m *laggingMirror) DeleteCookie(cookie uint64) {
	m.do("delete", cookie, func() { m.table.DeleteCookie(cookie) })
}

func (m *laggingMirror) Barrier() error {
	m.mu.Lock()
	held := m.held
	m.mu.Unlock()
	if held {
		m.entered <- struct{}{}
		<-m.release
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, op := range m.pending {
		op()
	}
	m.pending, m.held = nil, false
	return m.err
}

func (m *laggingMirror) hold() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.held = true
}

// since returns the operations sent from index i on.
func (m *laggingMirror) since(i int) []sentOp {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]sentOp(nil), m.sent[i:]...)
}

// egress is the port a table sends p to, or 0 when it misses or drops.
func egress(t *dataplane.FlowTable, p pkt.Packet) pkt.PortID {
	outs := t.Process(p)
	if len(outs) == 0 {
		return 0
	}
	return outs[0].InPort
}

// renderTable lists a table's programmable content, order-free.
func renderTable(es []*dataplane.FlowEntry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Clone().String()
	}
	slices.Sort(out)
	return out
}

// TestRecompileRetiresFastBandMakeBeforeBreak pins how a pass retires the
// fast band toward a mirror that confirms what it applied: the mirror
// gets the new bands first and the removal only fastRetireGrace later;
// while the mirror still forwards on a retired fast rule, the local table
// answers as that rule does; fast rules installed meanwhile survive; and
// once the mirror confirms, both tables hold the same rules and neither
// knows the retired VMAC.
func TestRecompileRetiresFastBandMakeBeforeBreak(t *testing.T) {
	ctrl := ingestFixture(t, 3) // AS100..102 on ports 1..3
	all := []iputil.Prefix{pfxI(1), pfxI(2), pfxI(3)}
	ctrl.ApplyBatch(rs.PeerUpdate{From: 101, Update: announceU(101, 0, all...)})
	ctrl.ApplyBatch(rs.PeerUpdate{From: 102, Update: &bgp.Update{Attrs: &bgp.PathAttrs{ASPath: []uint32{102, 7, 8}, NextHop: 102}, NLRI: all}})
	web := Fwd(pkt.MatchAll.DstPort(80), 102)
	if rep := ctrl.Recompile(CompilePolicy(100, nil, []Term{web})); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	mirror := newLaggingMirror()
	ctrl.AddRuleMirror(mirror)

	// probe is what AS100's router sends to p after ARP-resolving the next
	// hop it was last told.
	probe := func(p iputil.Prefix, dstPort uint16) pkt.Packet {
		t.Helper()
		var nh iputil.Addr
		for _, ad := range ctrl.RoutesFor(100) {
			if ad.Prefix == p {
				nh = ad.NextHop
			}
		}
		mac, ok := ctrl.ARP().Resolve(nh)
		if !ok {
			t.Fatalf("AS100's next hop %s for %s does not resolve", nh, p)
		}
		return pkt.Packet{InPort: 1, SrcMAC: PortMAC(1), DstMAC: mac, EthType: pkt.EthTypeIPv4,
			SrcIP: 0x0a000001, DstIP: p.Addr() + 1, Proto: pkt.ProtoTCP, SrcPort: 40000, DstPort: dstPort}
	}

	// A fast-path update hands pfxI(1) a fresh VNH.
	ctrl.ApplyBatch(rs.PeerUpdate{From: 101, Update: announceU(101, 1, all[0])})
	if ctrl.FastRules() == 0 {
		t.Fatal("the update installed no fast rules")
	}
	retired := []pkt.Packet{probe(all[0], 80), probe(all[0], 22)}
	if !IsVMAC(retired[0].DstMAC) {
		t.Fatalf("fast path advertised a non-virtual next hop (MAC %s)", retired[0].DstMAC)
	}
	want := make([]pkt.PortID, len(retired))
	for i, p := range retired {
		if want[i] = egress(mirror.table, p); want[i] == 0 || egress(ctrl.Switch().Table(), p) != want[i] {
			t.Fatalf("before the pass: probe %d egress mirror %d, local %d", i, want[i], egress(ctrl.Switch().Table(), p))
		}
	}
	if want[0] != 3 || want[1] != 2 {
		t.Fatalf("fast rules send the probes to %v, want [3 2] (AS100's web policy, then the best route)", want)
	}

	mirror.hold()
	sent := len(mirror.since(0))
	done := make(chan CompileReport)
	go func() { done <- ctrl.Recompile() }()
	<-mirror.entered

	// Bands first; the fast band only after the grace, set to the live
	// entries (none yet) rather than deleted.
	ops := mirror.since(sent)
	if len(ops) != 3 || ops[0].op != "replace" || ops[0].cookie != cookieBand1 || ops[1].op != "replace" ||
		ops[1].cookie != cookieBand2 || ops[2].op != "replace" || ops[2].cookie != cookieFast {
		t.Fatalf("pass sent %+v, want band-1, band-2, then fast-band replace", ops)
	}
	if gap := ops[2].at.Sub(ops[1].at); gap < fastRetireGrace {
		t.Fatalf("fast band retired %v after the bands were installed, want at least %v", gap, fastRetireGrace)
	}

	// The mirror has not applied the pass: it still forwards on the
	// retired rules, and the local table must answer the same.
	for i, p := range retired {
		if got, local := egress(mirror.table, p), egress(ctrl.Switch().Table(), p); got != want[i] || local != want[i] {
			t.Fatalf("while the mirror lags: probe %d egress mirror %d, local %d, want %d", i, got, local, want[i])
		}
	}
	if n := ctrl.FastRules(); n != 0 {
		t.Fatalf("FastRules = %d while the pass waits, want 0: the retired band is not live", n)
	}
	// The controller lock is free: an update installs its fast rules now.
	ctrl.ApplyBatch(rs.PeerUpdate{From: 101, Update: announceU(101, 2, all[2])})
	live := ctrl.FastRules()
	if live == 0 {
		t.Fatal("an update during the wait installed no fast rules")
	}

	mirror.release <- struct{}{}
	if rep := <-done; rep.Err != nil {
		t.Fatal(rep.Err)
	}
	for i, p := range retired {
		if got, local := egress(mirror.table, p), egress(ctrl.Switch().Table(), p); got != 0 || local != 0 {
			t.Fatalf("after the pass: retired probe %d still forwarded (mirror %d, local %d)", i, got, local)
		}
	}
	fresh := probe(all[2], 80)
	if got, local := egress(mirror.table, fresh), egress(ctrl.Switch().Table(), fresh); got != 3 || local != 3 {
		t.Fatalf("fast rule installed during the wait: egress mirror %d, local %d, want 3", got, local)
	}
	if ctrl.FastRules() != live {
		t.Fatalf("FastRules = %d after the pass, want the %d installed during it", ctrl.FastRules(), live)
	}
	if got, want := renderTable(mirror.table.Entries()), renderTable(ctrl.Switch().Table().Entries()); !slices.Equal(got, want) {
		t.Fatalf("mirror and local tables differ after the pass\nmirror:\n%v\nlocal:\n%v", got, want)
	}

	// A mirror that cannot confirm does not wedge the pass: the local
	// table drops the retired band once the barrier fails.
	mirror.err = errors.New("channel closed")
	ctrl.ApplyBatch(rs.PeerUpdate{From: 101, Update: announceU(101, 3, all[1])})
	if rep := ctrl.Recompile(); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if n := ctrl.FastRules(); n != 0 {
		t.Fatalf("FastRules = %d after a pass with nothing installed meanwhile", n)
	}
	for _, e := range ctrl.Switch().Table().Entries() {
		if e.Cookie == cookieFast {
			t.Fatalf("local table kept retired fast entry %s after a failed barrier", e)
		}
	}
}
