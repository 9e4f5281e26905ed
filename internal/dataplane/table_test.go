package dataplane

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/policy"
)

func pfx(s string) iputil.Prefix { return iputil.MustParsePrefix(s) }

func TestFlowTablePriority(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(1)}})
	tbl.Add(&FlowEntry{Priority: 10, Match: pkt.MatchAll.DstPort(80), Actions: []pkt.Action{pkt.Output(2)}})

	if e := tbl.Lookup(pkt.Packet{DstPort: 80}); e == nil || e.Priority != 10 {
		t.Fatalf("Lookup(web) = %v", e)
	}
	if e := tbl.Lookup(pkt.Packet{DstPort: 22}); e == nil || e.Priority != 1 {
		t.Fatalf("Lookup(ssh) = %v", e)
	}
}

func TestFlowTableTieBreakInsertionOrder(t *testing.T) {
	tbl := NewFlowTable()
	first := &FlowEntry{Priority: 5, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(1)}}
	second := &FlowEntry{Priority: 5, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(2)}}
	tbl.Add(first)
	tbl.Add(second)
	if e := tbl.Lookup(pkt.Packet{}); e != first {
		t.Fatal("equal priority must prefer earlier insertion")
	}
}

func TestFlowTableProcessCounters(t *testing.T) {
	tbl := NewFlowTable()
	e := &FlowEntry{Priority: 1, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(3)}}
	tbl.Add(e)
	p := pkt.Packet{Payload: make([]byte, 100)}
	out := tbl.Process(p)
	if len(out) != 1 || out[0].InPort != 3 {
		t.Fatalf("Process = %v", out)
	}
	// Byte counters count the full frame (header bytes included), not
	// just the payload.
	if e.Packets() != 1 || e.Bytes() != uint64(p.FrameLen()) {
		t.Fatalf("counters: %d pkts %d bytes (want %d bytes)", e.Packets(), e.Bytes(), p.FrameLen())
	}
}

func TestFlowTableMiss(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll.DstPort(80), Actions: []pkt.Action{pkt.Output(1)}})
	if out := tbl.Process(pkt.Packet{DstPort: 22}); out != nil {
		t.Fatalf("miss should return nil, got %v", out)
	}
	if tbl.Misses() != 1 {
		t.Fatalf("Misses = %d", tbl.Misses())
	}
}

func TestFlowTableDropEntry(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll})
	out := tbl.Process(pkt.Packet{})
	if out == nil || len(out) != 0 {
		t.Fatalf("drop entry should return empty non-nil, got %v (nil=%v)", out, out == nil)
	}
	if tbl.Misses() != 0 {
		t.Fatal("drop is not a miss")
	}
}

func TestFlowTableDeleteCookie(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll, Cookie: 7})
	tbl.Add(&FlowEntry{Priority: 2, Match: pkt.MatchAll, Cookie: 8})
	tbl.Add(&FlowEntry{Priority: 3, Match: pkt.MatchAll, Cookie: 7})
	if n := tbl.DeleteCookie(7); n != 2 {
		t.Fatalf("DeleteCookie removed %d", n)
	}
	if tbl.Len() != 1 || tbl.Entries()[0].Cookie != 8 {
		t.Fatalf("remaining: %v", tbl.Entries())
	}
}

func TestFlowTableReplace(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Add(&FlowEntry{Priority: 100, Match: pkt.MatchAll.DstPort(80), Actions: []pkt.Action{pkt.Output(9)}, Cookie: 1}) // fast path band
	tbl.Replace(2, []*FlowEntry{
		{Priority: 1, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(1)}},
	})
	tbl.Replace(2, []*FlowEntry{
		{Priority: 1, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(2)}},
		{Priority: 2, Match: pkt.MatchAll.DstPort(443), Actions: []pkt.Action{pkt.Output(3)}},
	})
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	// The fast-path band survives Replace of the base band.
	if e := tbl.Lookup(pkt.Packet{DstPort: 80}); e == nil || e.Cookie != 1 {
		t.Fatalf("fast path gone: %v", e)
	}
	if e := tbl.Lookup(pkt.Packet{DstPort: 443}); e == nil || e.Priority != 2 {
		t.Fatalf("replaced band: %v", e)
	}
}

func TestFlowTableAddBatchOrder(t *testing.T) {
	tbl := NewFlowTable()
	tbl.AddBatch([]*FlowEntry{
		{Priority: 5, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(1)}},
		{Priority: 5, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(2)}},
	})
	if e := tbl.Lookup(pkt.Packet{}); e.Actions[0].Out != 1 {
		t.Fatal("batch must preserve relative order at equal priority")
	}
}

// TestEntriesFromClassifierSemantics: a classifier installed as a flow
// table behaves identically to evaluating the classifier directly.
func TestEntriesFromClassifierSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 100; trial++ {
		var c policy.Classifier
		for i := 0; i < 1+r.Intn(8); i++ {
			m := pkt.MatchAll
			if r.Intn(2) == 0 {
				m = m.DstPort([]uint16{80, 443}[r.Intn(2)])
			}
			if r.Intn(2) == 0 {
				m = m.InPort(pkt.PortID(r.Intn(3)))
			}
			var acts []pkt.Action
			if r.Intn(4) > 0 {
				acts = []pkt.Action{pkt.Output(pkt.PortID(10 + r.Intn(3)))}
			}
			c = append(c, policy.Rule{Match: m, Actions: acts})
		}
		c = append(c, policy.Rule{Match: pkt.MatchAll})

		tbl := NewFlowTable()
		tbl.AddBatch(EntriesFromClassifier(c, 0, 42))

		for probe := 0; probe < 200; probe++ {
			p := pkt.Packet{
				InPort:  pkt.PortID(r.Intn(3)),
				DstPort: []uint16{80, 443, 22}[r.Intn(3)],
			}
			want := c.Eval(p)
			got := tbl.Process(p)
			if len(got) != len(want) {
				t.Fatalf("trial %d: table %v != classifier %v for %v\n%s", trial, got, want, p, tbl)
			}
			for i := range got {
				if !got[i].SameHeader(want[i]) {
					t.Fatalf("trial %d: packet %d differs: %v != %v", trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestFlowEntryString(t *testing.T) {
	e := &FlowEntry{Priority: 3, Match: pkt.MatchAll.DstPort(80), Actions: []pkt.Action{pkt.Output(1)}}
	if s := e.String(); !strings.Contains(s, "prio=3") || !strings.Contains(s, "fwd(1)") {
		t.Errorf("String = %s", s)
	}
	d := &FlowEntry{Priority: 0, Match: pkt.MatchAll}
	if s := d.String(); !strings.Contains(s, "drop") {
		t.Errorf("drop String = %s", s)
	}
}

func BenchmarkFlowTableLookup(b *testing.B) {
	tbl := NewFlowTable()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		tbl.Add(&FlowEntry{
			Priority: i,
			Match:    pkt.MatchAll.DstIP(iputil.NewPrefix(iputil.Addr(r.Uint32()), 24)).InPort(pkt.PortID(r.Intn(16))),
			Actions:  []pkt.Action{pkt.Output(pkt.PortID(r.Intn(16)))},
		})
	}
	p := pkt.Packet{DstIP: iputil.Addr(r.Uint32())}
	tbl.Lookup(p) // build the engine + warm the megaflow cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(p)
	}
	b.StopTimer()
	if n := testing.AllocsPerRun(100, func() { tbl.Lookup(p) }); n != 0 {
		b.Fatalf("warm Lookup allocates %.1f/op, want 0", n)
	}
}

// benchTable builds an n-rule table in the classifier's shape (dst /24
// prefixes refined by in-port) plus a matching probe packet.
func benchTable(n int) (*FlowTable, pkt.Packet) {
	tbl := NewFlowTable()
	r := rand.New(rand.NewSource(1))
	es := make([]*FlowEntry, 0, n)
	for i := 0; i < n; i++ {
		es = append(es, &FlowEntry{
			Priority: i,
			Match:    pkt.MatchAll.DstIP(iputil.NewPrefix(iputil.Addr(r.Uint32()), 24)).InPort(pkt.PortID(r.Intn(16))),
			Actions:  []pkt.Action{pkt.Output(pkt.PortID(r.Intn(16)))},
		})
	}
	tbl.AddBatch(es)
	e := es[n/2]
	pfx, _ := e.Match.GetDstIP()
	inp, _ := e.Match.GetInPort()
	return tbl, pkt.Packet{DstIP: pfx.Addr() + 1, InPort: inp}
}

// BenchmarkLookupCompiledVsNaive compares the compiled engine (warm
// megaflow cache) against the naive linear scan at 7k rules — the
// classifier size the paper's IXP workload compiles to.
func BenchmarkLookupCompiledVsNaive(b *testing.B) {
	tbl, p := benchTable(7000)
	b.Run("compiled", func(b *testing.B) {
		tbl.Precompile()
		tbl.Lookup(p)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tbl.Lookup(p)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tbl.LookupNaive(p)
		}
	})
}

// benchBatch is the mixed 64-packet batch the batched benchmarks drive:
// three in four packets are p (a hit in benchTable), the rest random.
func benchBatch(p pkt.Packet) []pkt.Packet {
	r := rand.New(rand.NewSource(2))
	in := make([]pkt.Packet, 64)
	for i := range in {
		if i%4 == 0 {
			in[i] = pkt.Packet{DstIP: iputil.Addr(r.Uint32()), InPort: pkt.PortID(r.Intn(16))}
		} else {
			in[i] = p
		}
	}
	return in
}

// BenchmarkProcessBatch measures the batched zero-alloc datapath with a
// reused output slab over a mixed 64-packet batch.
func BenchmarkProcessBatch(b *testing.B) {
	tbl, p := benchTable(7000)
	tbl.Precompile()
	in := benchBatch(p)
	out := make([]pkt.Packet, 0, 4*len(in))
	out = tbl.ProcessBatch(in, out[:0], nil) // warm every header
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = tbl.ProcessBatch(in, out[:0], nil)
	}
	b.StopTimer()
	if n := testing.AllocsPerRun(50, func() { out = tbl.ProcessBatch(in, out[:0], nil) }); n != 0 {
		b.Fatalf("warm ProcessBatch allocates %.1f/op, want 0", n)
	}
}

func TestFlowTableTieBreakCookieDeterministic(t *testing.T) {
	// At equal priority, the lower cookie must win no matter which order
	// the bands were installed in: a flush-and-replay resync that installs
	// bands in a different interleaving must produce the same precedence.
	band1 := &FlowEntry{Priority: 5, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(1)}, Cookie: 1}
	band2 := &FlowEntry{Priority: 5, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(2)}, Cookie: 2}

	forward := NewFlowTable()
	forward.Add(band1)
	forward.Add(band2)

	b1 := &FlowEntry{Priority: 5, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(1)}, Cookie: 1}
	b2 := &FlowEntry{Priority: 5, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(2)}, Cookie: 2}
	reverse := NewFlowTable()
	reverse.Add(b2)
	reverse.Add(b1)

	if e := forward.Lookup(pkt.Packet{}); e != band1 {
		t.Fatalf("forward install: lookup hit cookie %d, want cookie 1", e.Cookie)
	}
	if e := reverse.Lookup(pkt.Packet{}); e != b1 {
		t.Fatalf("reverse install: lookup hit cookie %d, want cookie 1", e.Cookie)
	}
}

func TestFlowTableTieBreakRandomizedOrderInvariant(t *testing.T) {
	// Install the same entry set under many random interleavings and check
	// the resulting table order is identical every time.
	mk := func() []*FlowEntry {
		var es []*FlowEntry
		for pri := 0; pri < 3; pri++ {
			for cookie := uint64(1); cookie <= 3; cookie++ {
				es = append(es, &FlowEntry{
					Priority: pri,
					Match:    pkt.MatchAll.DstPort(uint16(pri)),
					Actions:  []pkt.Action{pkt.Output(pkt.PortID(cookie))},
					Cookie:   cookie,
				})
			}
		}
		return es
	}
	dump := func(tbl *FlowTable) string {
		var b strings.Builder
		for _, e := range tbl.Entries() {
			fmt.Fprintf(&b, "%d/%d\n", e.Priority, e.Cookie)
		}
		return b.String()
	}
	var want string
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		es := mk()
		r.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		tbl := NewFlowTable()
		for _, e := range es {
			tbl.Add(e)
		}
		got := dump(tbl)
		if trial == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("trial %d: table order depends on install order:\n got: %s\nwant: %s", trial, got, want)
		}
	}
}

func TestOrderEntriesMatchesTableOrder(t *testing.T) {
	es := []*FlowEntry{
		{Priority: 1, Cookie: 2},
		{Priority: 9, Cookie: 3},
		{Priority: 9, Cookie: 1},
		{Priority: 1, Cookie: 2},
	}
	OrderEntries(es)
	got := make([]string, len(es))
	for i, e := range es {
		got[i] = fmt.Sprintf("%d/%d", e.Priority, e.Cookie)
	}
	want := []string{"9/1", "9/3", "1/2", "1/2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OrderEntries = %v, want %v", got, want)
		}
	}
}
