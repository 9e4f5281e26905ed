package difftest

import (
	"fmt"
	"testing"

	"sdx/internal/compiletest"
	"sdx/internal/dataplane"
	"sdx/internal/pkt"
	"sdx/internal/trafficgen"
)

// counterSnap is one observation of every counter the dataplane exposes:
// per-entry packet/byte counters keyed by the entry's insertion sequence
// (stable across engine rebuilds, unique across replacements) plus the
// table-wide miss and engine-build counters.
type counterSnap struct {
	packets map[uint64]uint64
	bytes   map[uint64]uint64
	misses  uint64
	builds  uint64
}

func snapCounters(table *dataplane.FlowTable) counterSnap {
	s := counterSnap{
		packets: make(map[uint64]uint64),
		bytes:   make(map[uint64]uint64),
		misses:  table.Misses(),
		builds:  table.EngineBuilds(),
	}
	for _, e := range table.Entries() {
		s.packets[e.Seq()] = e.Packets()
		s.bytes[e.Seq()] = e.Bytes()
	}
	return s
}

// checkMonotone asserts no counter moved backwards between two snapshots.
// Entries present only in one snapshot (replaced by a burst replay) are
// exempt; a Seq is never reused, so survivors compare like-for-like.
func checkMonotone(t *testing.T, stage string, before, after counterSnap) {
	t.Helper()
	for seq, p := range before.packets {
		if ap, ok := after.packets[seq]; ok && ap < p {
			t.Fatalf("%s: entry seq=%d packets regressed %d -> %d", stage, seq, p, ap)
		}
		if ab, ok := after.bytes[seq]; ok && ab < before.bytes[seq] {
			t.Fatalf("%s: entry seq=%d bytes regressed %d -> %d", stage, seq, before.bytes[seq], ab)
		}
	}
	if after.misses < before.misses {
		t.Fatalf("%s: table misses regressed %d -> %d", stage, before.misses, after.misses)
	}
	if after.builds < before.builds {
		t.Fatalf("%s: engine builds regressed %d -> %d", stage, before.builds, after.builds)
	}
}

// deltaSum is the total per-entry packet-counter growth across entries
// present in both snapshots.
func deltaSum(before, after counterSnap) uint64 {
	var d uint64
	for seq, ap := range after.packets {
		if bp, ok := before.packets[seq]; ok {
			d += ap - bp
		}
	}
	return d
}

// TestCounterMonotonicityProperty replays corpus workloads through every
// counter-bearing path the table has — compiled per-packet, naive
// per-packet, the batched path, cache-warm repeats, engine rebuilds
// from burst replays — and asserts two properties at
// every stage boundary:
//
//  1. Monotonicity: per-entry packet/byte counters and the table's
//     miss/build counters never move backwards. Entry counters live on
//     the *FlowEntry and must survive engine rebuilds, which rebuild
//     the dispatch structures around them.
//  2. Conservation: on an unmutated table, per-entry packet growth plus
//     miss growth equals exactly the number of packets offered — every
//     packet is counted once, on exactly one side, by every engine.
func TestCounterMonotonicityProperty(t *testing.T) {
	for i := 0; i < compiletest.CorpusSize; i += 7 {
		t.Run(fmt.Sprintf("case%03d", i), func(t *testing.T) {
			w, bursts := compiletest.CorpusWorkload(i)
			in, err := compiletest.Build(w)
			if err != nil {
				t.Fatal(err)
			}
			in.Compile()
			table := in.Ctrl.Switch().Table()
			gen := trafficgen.NewPacketGen(int64(i)*17+5, trafficgen.PoolsFromEntries(table.Entries()))
			stream := make([]pkt.Packet, 200)
			gen.Fill(stream)

			phases := []struct {
				name string
				n    uint64 // packets offered
				run  func()
			}{
				{"compiled per-packet", 200, func() {
					for _, p := range stream {
						table.Process(p)
					}
				}},
				{"naive per-packet", 200, func() {
					for _, p := range stream {
						table.ProcessNaive(p)
					}
				}},
				{"recompiled batch", 200, func() {
					table.Precompile()
					table.ProcessBatch(stream, nil, nil)
				}},
				{"cache-warm repeats", 64, func() {
					for j := 0; j < 64; j++ {
						table.Process(stream[j%4])
					}
				}},
			}
			prev := snapCounters(table)
			for _, ph := range phases {
				ph.run()
				cur := snapCounters(table)
				checkMonotone(t, ph.name, prev, cur)
				if got := deltaSum(prev, cur) + (cur.misses - prev.misses); got != ph.n {
					t.Fatalf("%s: conservation broken: %d packets counted, %d offered", ph.name, got, ph.n)
				}
				prev = cur
			}

			if bursts == 0 {
				return
			}
			// Burst replay mutates the table through the incremental
			// compiler: entries come and go, but survivors' counters and
			// the table-wide counters still may not regress.
			in.Replay(in.Trace(bursts*2, w.Seed+7))
			cur := snapCounters(table)
			checkMonotone(t, "after burst replay", prev, cur)
			prev = cur
			for _, p := range stream {
				table.Process(p)
			}
			checkMonotone(t, "post-replay traffic", prev, snapCounters(table))
		})
	}
}
