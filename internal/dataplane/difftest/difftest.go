// Package difftest is the differential-testing harness for the dataplane
// fast path: it replays deterministic packet streams against a flow
// table through both lookup engines — the compiled dispatch structure
// (dst-prefix trie + signature buckets + megaflow cache) and the naive
// priority-ordered scan, which is the always-available reference oracle —
// and reports the first divergence in either the chosen entry (priority,
// cookie, insertion sequence) or the emitted packets. The test suite
// drives it over the compiletest corpus (real classifier output from 200
// synthesized IXP workloads, including BGP burst replays) and over
// fabric trunk-band resyncs, so the engines are compared on the rule
// shapes the SDX controller actually installs.
package difftest

import (
	"fmt"

	"sdx/internal/dataplane"
	"sdx/internal/pkt"
	"sdx/internal/trafficgen"
)

// Stats summarizes one differential run.
type Stats struct {
	Packets int // packets replayed
	Matched int // packets some entry matched
	Emitted int // packets emitted by Process
}

// Run replays n packets from gen against the table through both engines.
// For every packet the compiled path (checked cold and cache-warm) must
// choose the same entry as the naive scan and Process must emit the same
// packets; the batched path is then replayed over the identical stream
// and must agree with the per-packet oracle.
func Run(table *dataplane.FlowTable, gen *trafficgen.PacketGen, n int) (Stats, error) {
	var st Stats

	stream := make([]pkt.Packet, n)
	gen.Fill(stream)

	for i, p := range stream {
		st.Packets++
		want := table.LookupNaive(p)
		if want != nil {
			st.Matched++
		}
		for _, pass := range []string{"cold", "warm"} {
			if got := table.Lookup(p); got != want {
				return st, fmt.Errorf("packet %d (%s pass): compiled chose %s, naive chose %s (pkt %v)",
					i, pass, entryID(got), entryID(want), p)
			}
		}
		gotOut := table.Process(p)
		wantOut := table.ProcessNaive(p)
		if err := diffOutputs(gotOut, wantOut); err != nil {
			return st, fmt.Errorf("packet %d: %v (pkt %v)", i, err, p)
		}
		st.Emitted += len(gotOut)
	}

	// Batched path over the same stream: outputs must concatenate to the
	// per-packet oracle's outputs in order.
	var wantAll []pkt.Packet
	misses := 0
	for _, p := range stream {
		wantAll = append(wantAll, table.ProcessNaive(p)...)
	}
	out := make([]pkt.Packet, 0, len(wantAll))
	for off := 0; off < len(stream); off += 64 {
		end := min(off+64, len(stream))
		out = table.ProcessBatch(stream[off:end], out, func(pkt.Packet) { misses++ })
	}
	if len(out) != len(wantAll) {
		return st, fmt.Errorf("batched path emitted %d packets, oracle %d", len(out), len(wantAll))
	}
	for i := range out {
		if !out[i].SameHeader(wantAll[i]) {
			return st, fmt.Errorf("batched output %d differs: %v vs %v", i, out[i], wantAll[i])
		}
	}
	if wantMisses := st.Packets - st.Matched; misses != wantMisses {
		return st, fmt.Errorf("batched path reported %d misses, oracle %d", misses, wantMisses)
	}
	return st, nil
}

// RunTable is Run with a generator derived from the table's own entries
// (destinations inside installed prefixes, matched in-ports and header
// values), the common case for corpus-driven differential checks.
func RunTable(table *dataplane.FlowTable, seed int64, n int) (Stats, error) {
	gen := trafficgen.NewPacketGen(seed, trafficgen.PoolsFromEntries(table.Entries()))
	return Run(table, gen, n)
}

func diffOutputs(got, want []pkt.Packet) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("Process nil-ness differs: compiled %v, naive %v", got == nil, want == nil)
	}
	if len(got) != len(want) {
		return fmt.Errorf("Process emitted %d packets, naive %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].SameHeader(want[i]) {
			return fmt.Errorf("output %d differs: %v vs %v", i, got[i], want[i])
		}
	}
	return nil
}

func entryID(e *dataplane.FlowEntry) string {
	if e == nil {
		return "miss"
	}
	return fmt.Sprintf("prio=%d cookie=%d seq=%d", e.Priority, e.Cookie, e.Seq())
}
