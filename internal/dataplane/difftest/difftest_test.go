package difftest

import (
	"fmt"
	"testing"

	"sdx/internal/compiletest"
	"sdx/internal/dataplane"
	"sdx/internal/fabric"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/trafficgen"
)

// TestCorpusDifferential replays seeded traffic against the flow table
// of every workload in the standard 200-case compiletest corpus: each
// case is built, compiled, and checked
// compiled-vs-naive over a table-derived packet stream; cases with BGP
// bursts replay their update trace through the incremental path and are
// checked again, so megaflow invalidation across CompileFast mutations
// is exercised on real rule streams.
func TestCorpusDifferential(t *testing.T) {
	for i := 0; i < compiletest.CorpusSize; i++ {
		t.Run(fmt.Sprintf("case%03d", i), func(t *testing.T) {
			w, bursts := compiletest.CorpusWorkload(i)
			in, err := compiletest.Build(w)
			if err != nil {
				t.Fatal(err)
			}
			in.Compile()
			table := in.Ctrl.Switch().Table()
			st, err := RunTable(table, int64(i)*13+1, 300)
			if err != nil {
				t.Fatalf("initial compile: %v", err)
			}
			if st.Matched == 0 && table.Len() > 0 {
				t.Fatalf("degenerate stream: 0/%d packets matched a %d-rule table", st.Packets, table.Len())
			}
			if err := in.VerifyEngine(4, 6); err != nil {
				t.Fatalf("initial compile: %v", err)
			}
			if bursts == 0 {
				return
			}
			in.Replay(in.Trace(bursts*3, w.Seed+99))
			if _, err := RunTable(table, int64(i)*13+2, 300); err != nil {
				t.Fatalf("after burst replay: %v", err)
			}
			if err := in.VerifyEngine(4, 6); err != nil {
				t.Fatalf("after burst replay: %v", err)
			}
		})
	}
}

// TestTrunkBandReplayDifferential checks the engines across a fabric
// resync: a multi-switch fabric with policy bands installed is flushed
// (FlushAll replays the static trunk band), and every member switch's
// table must agree compiled-vs-naive before the flush, after it, and
// after the policy band is re-installed — the table-wide mutations a
// resync performs must invalidate every cached verdict.
func TestTrunkBandReplayDifferential(t *testing.T) {
	f, err := fabric.New(fabric.Topology{
		Switches: []string{"edge-a", "edge-b", "core"},
		Ports: map[pkt.PortID]string{
			1: "edge-a", 2: "edge-a", 3: "edge-b", 4: "edge-b",
		},
		Links: []fabric.Link{
			{A: "edge-a", B: "core", PortA: 100, PortB: 101},
			{A: "edge-b", B: "core", PortA: 102, PortB: 103},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	policy := []*dataplane.FlowEntry{
		{Priority: 2000, Match: pkt.MatchAll.DstIP(iputil.NewPrefix(0x0a000000, 8)).DstPort(80),
			Actions: []pkt.Action{pkt.Output(3)}, Cookie: 7},
		{Priority: 2000, Match: pkt.MatchAll.DstIP(iputil.NewPrefix(0x0a800000, 9)),
			Actions: []pkt.Action{pkt.Output(1)}, Cookie: 7},
		{Priority: 1500, Match: pkt.MatchAll.InPort(2).Proto(pkt.ProtoUDP), Cookie: 7}, // drop band
	}
	f.AddBatch(policy)

	check := func(stage string) {
		t.Helper()
		for _, name := range []string{"edge-a", "edge-b", "core"} {
			table := f.Switch(name).Table()
			if _, err := Run(table, trafficgen.NewPacketGen(31, trafficgen.PoolsFromEntries(table.Entries())), 300); err != nil {
				t.Fatalf("%s/%s: %v", stage, name, err)
			}
		}
	}

	check("policy installed")
	gens := make(map[string]uint64)
	for _, name := range []string{"edge-a", "edge-b", "core"} {
		// Warm the caches so the flush has stale state to invalidate.
		table := f.Switch(name).Table()
		gen := trafficgen.NewPacketGen(5, trafficgen.PoolsFromEntries(table.Entries()))
		for i := 0; i < 200; i++ {
			table.Lookup(gen.Next())
		}
		gens[name] = table.Generation()
	}
	f.FlushAll()
	for name, g := range gens {
		if f.Switch(name).Table().Generation() <= g {
			t.Fatalf("FlushAll did not advance %s's generation", name)
		}
	}
	check("after FlushAll trunk replay")
	f.AddBatch(policy)
	check("policy re-installed")
}

// TestRunDetectsMissCount is a self-check on the harness: a stream with
// a known miss fraction must be reported faithfully by Stats.
func TestRunDetectsMissCount(t *testing.T) {
	table := dataplane.NewFlowTable()
	table.Add(&dataplane.FlowEntry{
		Priority: 1,
		Match:    pkt.MatchAll.DstIP(iputil.NewPrefix(0x0a000000, 8)),
		Actions:  []pkt.Action{pkt.Output(9)},
	})
	gen := trafficgen.NewPacketGen(3, trafficgen.PoolsFromEntries(table.Entries())).SetHitBias(1.0)
	st, err := Run(table, gen, 200)
	if err != nil {
		t.Fatal(err)
	}
	if st.Matched != st.Packets {
		t.Fatalf("hitBias=1.0: matched %d/%d", st.Matched, st.Packets)
	}
	if st.Emitted != st.Packets {
		t.Fatalf("emitted %d, want %d", st.Emitted, st.Packets)
	}
}
