package dataplane

import (
	"sort"
	"testing"
	"time"

	"sdx/internal/pkt"
)

// recordedSample is one SampleSink callback, captured for assertions.
type recordedSample struct {
	p        pkt.Packet
	cookie   uint64
	egress   pkt.PortID
	frameLen int
}

// recordSink collects every sample. Sampling callbacks are synchronous
// from the processing goroutine, so no locking is needed in these
// single-goroutine tests.
type recordSink struct{ samples []recordedSample }

func (r *recordSink) Sample(p pkt.Packet, cookie uint64, egress pkt.PortID, frameLen int) {
	r.samples = append(r.samples, recordedSample{p, cookie, egress, frameLen})
}

// TestByteCountersCountFullFrame: the per-entry byte counter counts the
// on-the-wire frame length — Ethernet + IP + transport headers, not just
// the payload — and the compiled, naive and batched paths agree exactly.
func TestByteCountersCountFullFrame(t *testing.T) {
	packets := []pkt.Packet{
		{EthType: pkt.EthTypeIPv4, Proto: pkt.ProtoTCP, DstPort: 80, Payload: make([]byte, 100)},
		{EthType: pkt.EthTypeIPv4, Proto: pkt.ProtoUDP, DstPort: 53, Payload: make([]byte, 32)},
		{EthType: pkt.EthTypeIPv4, Proto: pkt.ProtoICMP},
		{EthType: pkt.EthTypeARP, Payload: make([]byte, 28)},
		{EthType: 0x9999}, // unknown L3: Ethernet header only
	}
	want := uint64(0)
	for _, p := range packets {
		if p.FrameLen() < pkt.EthHeaderLen+len(p.Payload) {
			t.Fatalf("FrameLen(%v) = %d, below Ethernet floor", p, p.FrameLen())
		}
		want += uint64(p.FrameLen())
	}

	run := map[string]func(*FlowTable){
		"compiled": func(tbl *FlowTable) {
			for _, p := range packets {
				tbl.Process(p)
			}
		},
		"naive": func(tbl *FlowTable) {
			for _, p := range packets {
				tbl.ProcessNaive(p)
			}
		},
		"batch": func(tbl *FlowTable) {
			out := make([]pkt.Packet, 0, len(packets))
			tbl.ProcessBatch(packets, out, nil)
		},
	}
	for name, fn := range run {
		tbl := NewFlowTable()
		e := &FlowEntry{Priority: 1, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(2)}}
		tbl.Add(e)
		fn(tbl)
		if e.Bytes() != want {
			t.Errorf("%s path: bytes = %d, want %d (full frame)", name, e.Bytes(), want)
		}
		if e.Packets() != uint64(len(packets)) {
			t.Errorf("%s path: packets = %d, want %d", name, e.Packets(), len(packets))
		}
	}
}

// TestSamplerStrideBatch: the batched path samples exactly every Nth
// processed packet regardless of how the stream is chopped into batches.
func TestSamplerStrideBatch(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(7)}, Cookie: 42})
	sink := &recordSink{}
	tbl.SetSampler(sink, 4)

	// 3 + 64 + 1 + 60 = 128 packets, in uneven batches.
	stream := make([]pkt.Packet, 128)
	for i := range stream {
		stream[i] = pkt.Packet{EthType: pkt.EthTypeIPv4, Proto: pkt.ProtoUDP, SrcPort: uint16(i)}
	}
	out := make([]pkt.Packet, 0, 128)
	for _, n := range []int{3, 64, 1, 60} {
		tbl.ProcessBatch(stream[:n], out[:0], nil)
		stream = stream[n:]
	}

	if len(sink.samples) != 128/4 {
		t.Fatalf("got %d samples for 128 packets at 1-in-4, want 32", len(sink.samples))
	}
	for j, s := range sink.samples {
		if wantSrc := uint16(4*j + 3); s.p.SrcPort != wantSrc {
			t.Fatalf("sample %d is packet %d, want %d", j, s.p.SrcPort, wantSrc)
		}
		if s.cookie != 42 || s.egress != 7 {
			t.Fatalf("sample %d: cookie=%d egress=%d, want 42/7", j, s.cookie, s.egress)
		}
		if s.frameLen != s.p.FrameLen() {
			t.Fatalf("sample %d: frameLen=%d, want %d", j, s.frameLen, s.p.FrameLen())
		}
	}
}

// TestSamplerStrideSingle: the single-packet paths (Process and the
// naive oracle) share the same 1-in-N counter.
func TestSamplerStrideSingle(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(1)}})
	sink := &recordSink{}
	tbl.SetSampler(sink, 3)
	for i := 0; i < 9; i++ {
		tbl.Process(pkt.Packet{SrcPort: uint16(i)})
	}
	if len(sink.samples) != 3 {
		t.Fatalf("got %d samples for 9 packets at 1-in-3, want 3", len(sink.samples))
	}
	for j, s := range sink.samples {
		if want := uint16(3*j + 2); s.p.SrcPort != want {
			t.Fatalf("sample %d is packet %d, want %d", j, s.p.SrcPort, want)
		}
	}
}

// TestSamplerMissesAdvanceStride: misses never produce samples but do
// advance the packet counter, so the estimator's 1-in-N scale factor
// holds over the whole processed stream.
func TestSamplerMissesAdvanceStride(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll.DstPort(80), Actions: []pkt.Action{pkt.Output(1)}})
	sink := &recordSink{}
	tbl.SetSampler(sink, 2)

	// Alternating miss/hit: the 1-in-2 stride lands on every hit.
	in := make([]pkt.Packet, 8)
	for i := range in {
		if i%2 == 1 {
			in[i].DstPort = 80
		} else {
			in[i].DstPort = 9999
		}
	}
	out := make([]pkt.Packet, 0, 8)
	tbl.ProcessBatch(in, out, nil)
	if len(sink.samples) != 4 {
		t.Fatalf("got %d samples, want 4 (stride lands on hits)", len(sink.samples))
	}

	// Shift by one so the stride lands on every miss: no samples, but
	// the counter still advanced past them.
	sink.samples = nil
	tbl.SetSampler(sink, 2)
	tbl.Process(pkt.Packet{DstPort: 9999}) // counter=1
	tbl.ProcessBatch(in, out[:0], nil)     // stride now lands on the misses
	if len(sink.samples) != 0 {
		t.Fatalf("got %d samples from miss-aligned stride, want 0", len(sink.samples))
	}
}

// TestSamplerDropEgress: a sampled packet matching a drop rule reports
// OutNone as its egress.
func TestSamplerDropEgress(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll, Cookie: 9}) // drop
	sink := &recordSink{}
	tbl.SetSampler(sink, 1)
	tbl.Process(pkt.Packet{})
	out := make([]pkt.Packet, 0, 1)
	tbl.ProcessBatch([]pkt.Packet{{}}, out, nil)
	if len(sink.samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(sink.samples))
	}
	for i, s := range sink.samples {
		if s.egress != pkt.OutNone || s.cookie != 9 {
			t.Fatalf("sample %d: egress=%d cookie=%d, want OutNone/9", i, s.egress, s.cookie)
		}
	}
}

// TestSamplerDetach: SetSampler(nil, ...) stops sampling.
func TestSamplerDetach(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(1)}})
	sink := &recordSink{}
	tbl.SetSampler(sink, 1)
	tbl.Process(pkt.Packet{})
	tbl.SetSampler(nil, 0)
	if tbl.SamplerRate() != 0 {
		t.Fatalf("SamplerRate after detach = %d", tbl.SamplerRate())
	}
	tbl.Process(pkt.Packet{})
	if len(sink.samples) != 1 {
		t.Fatalf("got %d samples after detach, want 1", len(sink.samples))
	}
}

// TestSamplerNonSampledPathZeroAlloc: with a sampler attached, packets
// that the stride does not select cost no allocations on the warm
// batched path — the acceptance bar for leaving sampling enabled in
// production.
func TestSamplerNonSampledPathZeroAlloc(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll.DstPort(80), Actions: []pkt.Action{pkt.Output(2)}})
	// Rate far beyond the packets processed below: every packet takes the
	// non-sampled branch.
	tbl.SetSampler(&recordSink{}, 1<<30)

	in := make([]pkt.Packet, 64)
	for i := range in {
		in[i] = pkt.Packet{EthType: pkt.EthTypeIPv4, Proto: pkt.ProtoTCP, DstPort: 80}
	}
	out := make([]pkt.Packet, 0, 256)
	tbl.ProcessBatch(in, out[:0], nil) // warm cache + engine
	if n := testing.AllocsPerRun(100, func() { out = tbl.ProcessBatch(in, out[:0], nil) }); n != 0 {
		t.Errorf("non-sampled ProcessBatch with sampler attached allocates %.1f/op, want 0", n)
	}
}

// countSink counts samples: the cheapest possible sink, so what
// BenchmarkSamplerOverhead measures is the table's own sampling path.
type countSink struct{ n int }

func (c *countSink) Sample(pkt.Packet, uint64, pkt.PortID, int) { c.n++ }

// BenchmarkSamplerOverhead gates the sampler's cost contract: attaching a
// 1-in-1024 sampler to the warm batched path at 7k rules may cost at most
// 5% over the detached table. Each iteration is one round: one sampling
// period (1024 packets, 16 batches) detached, then the same attached, so
// clock drift and cache state hit both sides alike. SetSampler restarts
// the stride, so every attached side exports exactly one sample and pays
// the sampled branch as well as the per-batch stride bookkeeping. The
// medians of the per-side ns/pkt are compared. Every run takes at least
// 300 rounds, the calibration run at b.N = 1 included, so each gate sees
// a stable median.
func BenchmarkSamplerOverhead(b *testing.B) {
	const (
		minRounds = 300
		rate      = 1024
	)
	tbl, p := benchTable(7000)
	tbl.Precompile()
	in := benchBatch(p)
	out := make([]pkt.Packet, 0, 4*len(in))
	out = tbl.ProcessBatch(in, out[:0], nil) // warm every header

	rounds := max(b.N, minRounds)
	detached := make([]float64, 0, rounds)
	attached := make([]float64, 0, rounds)
	side := func(samples *[]float64) {
		t0 := time.Now()
		for i := 0; i < rate/len(in); i++ {
			out = tbl.ProcessBatch(in, out[:0], nil)
		}
		*samples = append(*samples, float64(time.Since(t0).Nanoseconds())/rate)
	}
	sink := &countSink{}
	b.ResetTimer()
	for r := 0; r < rounds; r++ {
		tbl.SetSampler(nil, 0)
		side(&detached)
		tbl.SetSampler(sink, rate)
		side(&attached)
	}
	b.StopTimer()
	if sink.n != rounds {
		b.Fatalf("attached sides exported %d samples, want one per round (%d)", sink.n, rounds)
	}
	median := func(s []float64) float64 {
		sort.Float64s(s)
		return s[len(s)/2]
	}
	base, sampled := median(detached), median(attached)
	overhead := 100 * (sampled - base) / base
	b.ReportMetric(overhead, "overhead-%")
	if overhead > 5 {
		b.Fatalf("1-in-%d sampler costs %.2f%% over the detached table (%.1f vs %.1f ns/pkt), ceiling 5%%",
			rate, overhead, sampled, base)
	}
}
