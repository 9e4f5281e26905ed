package compiletest

import (
	"fmt"
	"testing"

	"sdx/internal/workload"
)

// TestCoalescedBurstMatchesSerial is the coalescing-equivalence property
// suite: for every corpus workload with bursts, the same amplified update
// trace (each burst replayed three times, so every (peer, prefix) key is
// rewritten repeatedly and coalescing is guaranteed to collapse entries)
// is driven through two identical controllers — one applying every event
// one at a time via ApplyBatch, the other enqueueing the whole burst
// into a coalescing UpdateQueue drained in a single pass. After a full
// recompilation on both sides, the canonical classifier dumps, installed
// flow tables, per-participant Loc-RIB views and forwarding outcomes must
// all be byte-identical: coalescing may drop intermediate churn but never
// the end state.
func TestCoalescedBurstMatchesSerial(t *testing.T) {
	cases := 0
	for i := 0; i < CorpusSize && cases < 60; i++ {
		w, bursts := CorpusWorkload(i)
		if bursts == 0 {
			continue
		}
		cases++
		t.Run(fmt.Sprintf("case%03d", i), func(t *testing.T) {
			serial, err := Build(w)
			if err != nil {
				t.Fatal(err)
			}
			coal, err := Build(w)
			if err != nil {
				t.Fatal(err)
			}
			serial.Compile()
			coal.Compile()

			// Amplify the trace: replaying it three times rewrites every
			// (peer, prefix) key three times over, so the queue must coalesce
			// (asserted below) rather than merely batch.
			tr := serial.Trace(bursts*3, w.Seed+177)
			amplified := &workload.Trace{}
			for rep := 0; rep < 3; rep++ {
				amplified.Events = append(amplified.Events, tr.Events...)
			}

			serial.Replay(amplified)
			if err := coal.ReplayCoalesced(amplified); err != nil {
				t.Fatal(err)
			}
			if got, want := coal.Ctrl.RouteServer().UpdatesProcessed(), serial.Ctrl.RouteServer().UpdatesProcessed(); got >= want {
				t.Fatalf("queue applied %d updates, serial %d — nothing coalesced", got, want)
			}
			if n := coal.Ctrl.Metrics().Counter("ingest.drains").Value(); n != 1 {
				t.Fatalf("coalesced leg ran %d drains, want 1", n)
			}

			// Intermediate rule churn legitimately differs; the end state may
			// not. Full recompile on both sides, then compare every observable.
			cs := serial.Compile()
			cc := coal.Compile()
			if err := DiffText("post-burst canonical", cs, cc); err != nil {
				t.Fatal(err)
			}
			if err := DiffText("installed flow table",
				serial.Ctrl.Switch().Table().String(),
				coal.Ctrl.Switch().Table().String()); err != nil {
				t.Fatal(err)
			}
			if err := DiffLines("loc-rib", RIBDump(serial.Ctrl), RIBDump(coal.Ctrl)); err != nil {
				t.Fatal(err)
			}
			if err := DiffOutcomes("forwarding",
				Outcomes(serial.Ctrl, 4, 6), Outcomes(coal.Ctrl, 4, 6)); err != nil {
				t.Fatal(err)
			}
			if err := coal.VerifyTables(); err != nil {
				t.Fatalf("coalesced tables: %v", err)
			}
		})
	}
	if cases == 0 {
		t.Fatal("corpus yielded no burst cases")
	}
}
