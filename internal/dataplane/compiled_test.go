package dataplane

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sdx/internal/iputil"
	"sdx/internal/pkt"
)

// randEntry synthesizes one classifier-shaped entry: usually a dstIP
// prefix, often inPort/dstMAC/ethType, occasionally transport fields,
// sometimes a drop.
func randEntry(r *rand.Rand) *FlowEntry {
	m := pkt.MatchAll
	if r.Intn(4) > 0 {
		m = m.DstIP(iputil.NewPrefix(iputil.Addr(r.Uint32()), uint8(r.Intn(33))))
	}
	if r.Intn(2) == 0 {
		m = m.InPort(pkt.PortID(r.Intn(8)))
	}
	if r.Intn(3) == 0 {
		m = m.DstMAC(pkt.MAC(r.Intn(8)))
	}
	if r.Intn(3) == 0 {
		m = m.EthType([]uint16{pkt.EthTypeIPv4, pkt.EthTypeARP}[r.Intn(2)])
	}
	if r.Intn(4) == 0 {
		m = m.Proto([]uint8{pkt.ProtoTCP, pkt.ProtoUDP}[r.Intn(2)])
	}
	if r.Intn(4) == 0 {
		m = m.DstPort([]uint16{80, 443, 53}[r.Intn(3)])
	}
	var acts []pkt.Action
	if r.Intn(5) > 0 {
		acts = []pkt.Action{pkt.Output(pkt.PortID(100 + r.Intn(8)))}
	}
	return &FlowEntry{
		Priority: r.Intn(64),
		Match:    m,
		Actions:  acts,
		Cookie:   uint64(r.Intn(4)),
	}
}

// randPacket synthesizes a probe packet, biased so rules actually hit:
// half the time the destination is drawn near an installed rule's
// prefix.
func randPacket(r *rand.Rand, es []*FlowEntry) pkt.Packet {
	p := pkt.Packet{
		InPort:  pkt.PortID(r.Intn(8)),
		DstMAC:  pkt.MAC(r.Intn(8)),
		EthType: []uint16{pkt.EthTypeIPv4, pkt.EthTypeARP}[r.Intn(2)],
		DstIP:   iputil.Addr(r.Uint32()),
		Proto:   []uint8{pkt.ProtoTCP, pkt.ProtoUDP, pkt.ProtoICMP}[r.Intn(3)],
		DstPort: []uint16{80, 443, 53, 9000}[r.Intn(4)],
	}
	if len(es) > 0 && r.Intn(2) == 0 {
		e := es[r.Intn(len(es))]
		if pfx, ok := e.Match.GetDstIP(); ok {
			p.DstIP = pfx.Addr() + iputil.Addr(r.Intn(7))
		}
	}
	return p
}

func entryID(e *FlowEntry) string {
	if e == nil {
		return "miss"
	}
	return fmt.Sprintf("prio=%d cookie=%d seq=%d", e.Priority, e.Cookie, e.Seq())
}

// TestCompiledLookupEquivalence: on randomized rule sets, the compiled
// engine (cold cache, then warm cache) must return the exact entry the
// naive scan picks — same pointer, hence same (priority, cookie, seq).
func TestCompiledLookupEquivalence(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		r := rand.New(rand.NewSource(int64(trial)*101 + 7))
		tbl := NewFlowTable()
		var es []*FlowEntry
		for i := 0; i < 1+r.Intn(120); i++ {
			es = append(es, randEntry(r))
		}
		tbl.AddBatch(es)
		for probe := 0; probe < 300; probe++ {
			p := randPacket(r, es)
			want := tbl.LookupNaive(p)
			if got := tbl.Lookup(p); got != want {
				t.Fatalf("trial %d: cold lookup %s, naive %s for %v", trial, entryID(got), entryID(want), p)
			}
			if got := tbl.Lookup(p); got != want {
				t.Fatalf("trial %d: warm lookup diverged for %v", trial, p)
			}
		}
	}
}

// TestCompiledProcessEquivalence: Process through the compiled path must
// emit the same packets as the naive oracle.
func TestCompiledProcessEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	tbl := NewFlowTable()
	var es []*FlowEntry
	for i := 0; i < 80; i++ {
		es = append(es, randEntry(r))
	}
	tbl.AddBatch(es)
	for probe := 0; probe < 500; probe++ {
		p := randPacket(r, es)
		got := tbl.Process(p)
		want := tbl.ProcessNaive(p)
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("Process %v != ProcessNaive %v for %v", got, want, p)
		}
		for i := range got {
			if !got[i].SameHeader(want[i]) {
				t.Fatalf("output %d differs: %v != %v", i, got[i], want[i])
			}
		}
	}
}

// mutation cases for the invalidation property: every table mutation op
// must advance the generation and make the very next lookup reflect the
// new table — a stale megaflow verdict must never be served.
func TestCacheInvalidationOnEveryMutation(t *testing.T) {
	probe := pkt.Packet{DstIP: iputil.MustParseAddr("10.1.2.3"), DstPort: 80}
	low := func() *FlowEntry {
		return &FlowEntry{Priority: 1, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(1)}, Cookie: 1}
	}
	high := func() *FlowEntry {
		return &FlowEntry{Priority: 9, Match: pkt.MatchAll.DstPort(80), Actions: []pkt.Action{pkt.Output(2)}, Cookie: 2}
	}

	cases := []struct {
		name   string
		mutate func(t *FlowTable)
		want   pkt.PortID // egress after the mutation
	}{
		{"Add", func(tb *FlowTable) { tb.Add(high()) }, 2},
		{"AddBatch", func(tb *FlowTable) { tb.AddBatch([]*FlowEntry{high()}) }, 2},
		{"Replace", func(tb *FlowTable) { tb.Replace(2, []*FlowEntry{high()}) }, 2},
		{"DeleteCookie", func(tb *FlowTable) {
			tb.Add(high())
			if tb.Lookup(probe).Cookie != 2 { // warm the cache on the high entry
				t.Fatal("setup: high entry not winning")
			}
			tb.DeleteCookie(2)
		}, 1},
		{"Flush", func(tb *FlowTable) {
			tb.Flush()
			tb.Add(high())
		}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := NewFlowTable()
			tbl.Add(low())
			// Warm both the engine and the megaflow cache on the old table.
			for i := 0; i < 3; i++ {
				if e := tbl.Lookup(probe); e == nil || e.Actions[0].Out != 1 {
					t.Fatalf("setup lookup = %v", e)
				}
			}
			gen := tbl.Generation()
			tc.mutate(tbl)
			if tbl.Generation() == gen {
				t.Fatalf("%s did not advance the generation", tc.name)
			}
			e := tbl.Lookup(probe)
			if e == nil || e.Actions[0].Out != tc.want {
				t.Fatalf("after %s: lookup = %v, want egress %d (stale cache served?)", tc.name, e, tc.want)
			}
			if got, want := tbl.Lookup(probe), tbl.LookupNaive(probe); got != want {
				t.Fatalf("after %s: compiled %s != naive %s", tc.name, entryID(got), entryID(want))
			}
		})
	}
}

// TestGenerationAdvancesOnNoOpMutations: even mutations that change
// nothing observable (deleting an absent cookie, flushing an empty
// table, replacing with an equal band) must advance the generation —
// cheap over-invalidation is the safety margin.
func TestGenerationAdvancesOnNoOpMutations(t *testing.T) {
	tbl := NewFlowTable()
	g := tbl.Generation()
	if tbl.DeleteCookie(12345); tbl.Generation() == g {
		t.Fatal("DeleteCookie(absent) did not bump generation")
	}
	g = tbl.Generation()
	if tbl.Flush(); tbl.Generation() == g {
		t.Fatal("Flush(empty) did not bump generation")
	}
	g = tbl.Generation()
	if tbl.Replace(7, nil); tbl.Generation() == g {
		t.Fatal("Replace(empty) did not bump generation")
	}
}

// checkAgainstNaive asserts Lookup (twice: as found, then freshly
// stamped) and ProcessBatch agree with the naive oracle on every probe —
// entries by pointer, hence full (priority, cookie, seq) identity.
func checkAgainstNaive(t *testing.T, stage string, tbl *FlowTable, probes []pkt.Packet) {
	t.Helper()
	for _, p := range probes {
		want := tbl.LookupNaive(p)
		for pass := 0; pass < 2; pass++ {
			if got := tbl.Lookup(p); got != want {
				t.Fatalf("%s: pass %d: compiled %s != naive %s for %v", stage, pass, entryID(got), entryID(want), p)
			}
		}
	}
	var want []pkt.Packet
	wantMisses := 0
	for _, p := range probes {
		outs := tbl.ProcessNaive(p)
		if outs == nil {
			wantMisses++
		}
		want = append(want, outs...)
	}
	misses := 0
	got := tbl.ProcessBatch(probes, nil, func(pkt.Packet) { misses++ })
	if misses != wantMisses || len(got) != len(want) {
		t.Fatalf("%s: ProcessBatch %d outputs/%d misses, naive %d/%d", stage, len(got), misses, len(want), wantMisses)
	}
	for i := range got {
		if !got[i].SameHeader(want[i]) {
			t.Fatalf("%s: ProcessBatch output %d: %v != %v", stage, i, got[i], want[i])
		}
	}
}

// TestRevalidationProperty drives random interleavings of every mutation
// with warm-cache lookups. After every step the compiled path must equal
// the naive oracle on a warm probe set and on fresh probes. After an
// additive step (any batch the log can hold) it must have got there
// without a single cache miss or engine build on the warm set — installs
// revalidate, they do not invalidate, and since every step restamps the
// warm verdicts the sliding floor never catches up with them — and a
// warm key that no new entry matches must keep its exact verdict.
func TestRevalidationProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(2026 + seed))
		tbl := NewFlowTable()
		var installed []*FlowEntry
		for i := 0; i < 40; i++ {
			installed = append(installed, randEntry(r))
		}
		tbl.AddBatch(installed)
		warm := make([]pkt.Packet, 48)
		for i := range warm {
			warm[i] = randPacket(r, installed)
		}
		checkAgainstNaive(t, "setup", tbl, warm)

		for step := 0; step < 150; step++ {
			stage := fmt.Sprintf("seed %d step %d", seed, step)
			prev := make([]*FlowEntry, len(warm))
			for i, p := range warm {
				prev[i] = tbl.Lookup(p)
			}
			before, builds, gen := tbl.Stats(), tbl.EngineBuilds(), tbl.Generation()

			var added []*FlowEntry
			additive := true
			switch op := r.Intn(10); {
			case op < 4:
				added = []*FlowEntry{randEntry(r)}
				tbl.Add(added[0])
			case op < 7:
				for i := 0; i < r.Intn(12); i++ {
					added = append(added, randEntry(r))
				}
				tbl.AddBatch(added)
			case op == 7:
				additive = false
				tbl.DeleteCookie(uint64(r.Intn(4)))
			case op == 8:
				additive = false
				for i := 0; i < r.Intn(8); i++ {
					added = append(added, randEntry(r))
				}
				tbl.Replace(uint64(r.Intn(4)), added)
			default:
				additive = false
				if r.Intn(4) == 0 {
					tbl.Flush()
				} else {
					tbl.DeleteCookie(99) // destructive, removes nothing
				}
			}
			installed = append(installed, added...)
			if tbl.Generation() <= gen {
				t.Fatalf("%s: generation did not advance", stage)
			}

			checkAgainstNaive(t, stage, tbl, warm)
			if additive {
				after := tbl.Stats()
				if after.Misses != before.Misses || tbl.EngineBuilds() != builds {
					t.Fatalf("%s: additive install cost the warm set %d misses and %d engine builds, want 0 and 0",
						stage, after.Misses-before.Misses, tbl.EngineBuilds()-builds)
				}
				for i, p := range warm {
					touched := false
					for _, e := range added {
						touched = touched || e.Match.Matches(p)
					}
					if got := tbl.Lookup(p); !touched && got != prev[i] {
						t.Fatalf("%s: verdict for %v moved %s -> %s though no new entry matches it",
							stage, p, entryID(prev[i]), entryID(got))
					}
				}
			}
			fresh := make([]pkt.Packet, 16)
			for i := range fresh {
				fresh[i] = randPacket(r, installed)
			}
			checkAgainstNaive(t, stage+" (fresh probes)", tbl, fresh)
		}
	}
}

// TestAdditivePrecedence pins the fold rule on a cached key: a new entry
// takes the key over exactly when it matches and precedes the cached
// winner under (priority desc, cookie asc, seq asc) — and every case is
// settled by revalidation alone, with no miss and no engine build.
func TestAdditivePrecedence(t *testing.T) {
	probe := pkt.Packet{DstIP: iputil.MustParseAddr("10.1.2.3"), DstPort: 80}
	base := func() *FlowEntry {
		return &FlowEntry{Priority: 5, Match: pkt.MatchAll.DstPort(80), Actions: []pkt.Action{pkt.Output(1)}, Cookie: 2}
	}
	cases := []struct {
		name  string
		base  *FlowEntry // nil: the key starts as a cached miss
		add   *FlowEntry
		flips bool
	}{
		{"higher priority, overlapping", base(), &FlowEntry{Priority: 9, Match: pkt.MatchAll, Cookie: 3}, true},
		{"higher priority, more specific", base(), &FlowEntry{Priority: 9, Match: pkt.MatchAll.DstPort(80).DstIP(pfx("10.1.0.0/16")), Cookie: 3}, true},
		{"higher priority, disjoint", base(), &FlowEntry{Priority: 9, Match: pkt.MatchAll.DstPort(443), Cookie: 3}, false},
		{"lower priority", base(), &FlowEntry{Priority: 1, Match: pkt.MatchAll, Cookie: 0}, false},
		{"equal priority, higher cookie", base(), &FlowEntry{Priority: 5, Match: pkt.MatchAll, Cookie: 3}, false},
		{"equal priority, lower cookie", base(), &FlowEntry{Priority: 5, Match: pkt.MatchAll, Cookie: 1}, true},
		{"equal priority and cookie, later seq", base(), &FlowEntry{Priority: 5, Match: pkt.MatchAll, Cookie: 2}, false},
		{"cached miss becomes a hit", nil, &FlowEntry{Priority: 0, Match: pkt.MatchAll.DstPort(80), Cookie: 9}, true},
		{"cached miss stays a miss", nil, &FlowEntry{Priority: 9, Match: pkt.MatchAll.DstPort(443), Cookie: 0}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := NewFlowTable()
			tbl.Add(&FlowEntry{Priority: 7, Match: pkt.MatchAll.DstPort(22), Cookie: 1}) // bystander
			if tc.base != nil {
				tbl.Add(tc.base)
			}
			if got := tbl.Lookup(probe); got != tc.base {
				t.Fatalf("setup: lookup = %s", entryID(got))
			}
			before, builds := tbl.Stats(), tbl.EngineBuilds()
			tbl.AddBatch([]*FlowEntry{tc.add})
			want := tc.base
			if tc.flips {
				want = tc.add
			}
			if got := tbl.Lookup(probe); got != want {
				t.Fatalf("lookup = %s, want %s", entryID(got), entryID(want))
			}
			if naive := tbl.LookupNaive(probe); naive != want {
				t.Fatalf("oracle disagrees with the case table: %s", entryID(naive))
			}
			after := tbl.Stats()
			if after.Misses != before.Misses || after.Hits != before.Hits+1 || tbl.EngineBuilds() != builds {
				t.Fatalf("not settled by revalidation: stats %+v -> %+v, builds %d -> %d", before, after, builds, tbl.EngineBuilds())
			}
		})
	}
}

// TestAddLogBound drives past addLogBound. One hot key is looked up
// after every install, one idle key only at the ends. The floor must
// slide, not reset: the hot verdict is never lost however many entries
// go by, the idle one is stranded once a full window has passed it, and
// a single batch larger than the log strands everything — all three
// still answering exactly like the oracle.
func TestAddLogBound(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(1)}})
	hot, idle := pkt.Packet{DstPort: 80}, pkt.Packet{DstPort: 81}
	tbl.Lookup(hot)
	tbl.Lookup(idle)
	rule := func(i int) *FlowEntry {
		// Even rules catch the hot key at rising priority, odd ones
		// catch nothing cached.
		m := pkt.MatchAll.DstPort(80)
		if i%2 == 1 {
			m = pkt.MatchAll.DstPort(uint16(1000 + i))
		}
		return &FlowEntry{Priority: 2 + i, Match: m, Actions: []pkt.Action{pkt.Output(2)}}
	}

	start, n := tbl.Stats(), 0
	for ; n < 3*addLogBound; n++ {
		tbl.Add(rule(n))
		if got, want := tbl.Lookup(hot), tbl.LookupNaive(hot); got != want {
			t.Fatalf("install %d: hot key %s, naive %s", n, entryID(got), entryID(want))
		}
	}
	if st := tbl.Stats(); st.Misses != start.Misses || tbl.EngineBuilds() != 1 {
		t.Fatalf("hot key lost its verdict across %d installs: %d misses, %d engine builds (want 0 more, 1)",
			n, st.Misses-start.Misses, tbl.EngineBuilds())
	}
	if got, want := tbl.Lookup(idle), tbl.LookupNaive(idle); got != want {
		t.Fatalf("idle key %s, naive %s", entryID(got), entryID(want))
	}
	if st := tbl.Stats(); st.Misses != start.Misses+1 || tbl.EngineBuilds() != 2 {
		t.Fatalf("idle key behind the floor: %d misses, %d engine builds, want 1 and 2", st.Misses-start.Misses, tbl.EngineBuilds())
	}

	var big []*FlowEntry
	for i := 0; i <= addLogBound; i++ {
		big = append(big, rule(n+i))
	}
	tbl.AddBatch(big)
	for _, p := range []pkt.Packet{hot, idle} {
		if got, want := tbl.Lookup(p), tbl.LookupNaive(p); got != want {
			t.Fatalf("after oversized batch: %s, naive %s", entryID(got), entryID(want))
		}
	}
	if st := tbl.Stats(); st.Misses != start.Misses+3 || tbl.EngineBuilds() != 3 {
		t.Fatalf("oversized batch: %d misses, %d engine builds, want 3 and 3", st.Misses-start.Misses, tbl.EngineBuilds())
	}
}

// TestInstallsPastCacheCapacity streams more distinct headers than the
// cache holds while entries keep arriving, so shards are cleared
// wholesale between, and in the middle of, revalidations.
func TestInstallsPastCacheCapacity(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	tbl := NewFlowTable()
	tbl.SetCacheCapacity(4) // 64 verdicts in all
	var installed []*FlowEntry
	for i := 0; i < 30; i++ {
		installed = append(installed, randEntry(r))
	}
	tbl.AddBatch(installed)
	stream := make([]pkt.Packet, 400)
	for i := range stream {
		stream[i] = randPacket(r, installed)
	}
	for round := 0; round < 2*addLogBound; round++ {
		e := randEntry(r)
		installed = append(installed, e)
		tbl.Add(e)
		lo := round * 7 % (len(stream) - 100)
		checkAgainstNaive(t, fmt.Sprintf("round %d", round), tbl, stream[lo:lo+100])
		if n := tbl.Stats().Entries; n > cacheShards*4 {
			t.Fatalf("round %d: cache holds %d verdicts, bound is %d", round, n, cacheShards*4)
		}
	}
}

// TestConcurrentMutateWhileLookup runs mutators against lookup/process
// hammers under the race detector. Safety properties checked from the
// reader side: a returned entry's match must actually cover the packet
// (no torn dispatch state), and once mutations stop, compiled and naive
// must agree again.
func TestConcurrentMutateWhileLookup(t *testing.T) {
	tbl := NewFlowTable()
	r := rand.New(rand.NewSource(4))
	var seed []*FlowEntry
	for i := 0; i < 50; i++ {
		seed = append(seed, randEntry(r))
	}
	tbl.AddBatch(seed)

	const readers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := randPacket(rr, seed2Entries)
				if e := tbl.Lookup(p); e != nil && !e.Match.Matches(p) {
					select {
					case errs <- fmt.Errorf("lookup returned non-matching entry %s for %v", e, p):
					default:
					}
					return
				}
				tbl.Process(p)
			}
		}(int64(g) + 100)
	}

	mut := rand.New(rand.NewSource(9))
	for step := 0; step < 400; step++ {
		switch mut.Intn(4) {
		case 0:
			tbl.Add(randEntry(mut))
		case 1:
			var batch []*FlowEntry
			for i := 0; i < 1+mut.Intn(5); i++ {
				batch = append(batch, randEntry(mut))
			}
			tbl.Replace(uint64(mut.Intn(4)), batch)
		case 2:
			tbl.DeleteCookie(uint64(mut.Intn(4)))
		case 3:
			tbl.AddBatch([]*FlowEntry{randEntry(mut)})
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Quiesced: compiled must equal naive everywhere again.
	rr := rand.New(rand.NewSource(77))
	for i := 0; i < 200; i++ {
		p := randPacket(rr, seed)
		if got, want := tbl.Lookup(p), tbl.LookupNaive(p); got != want {
			t.Fatalf("post-quiesce: compiled %s != naive %s for %v", entryID(got), entryID(want), p)
		}
	}
}

// TestConcurrentAdditiveWhileForwarding races additive batches against
// forwarding goroutines. While a table only grows, a key's verdict can
// only move up in precedence, so each reader checks that its own
// successive verdicts per key are monotone under entryBefore — a
// revalidation that lost an entry, or a racing put that resurrected an
// older verdict as current, shows up as a step backwards. The writer
// waits for a reader pass between installs so generations are actually
// observed in flight.
func TestConcurrentAdditiveWhileForwarding(t *testing.T) {
	tbl := NewFlowTable()
	r := rand.New(rand.NewSource(4))
	var seed []*FlowEntry
	for i := 0; i < 50; i++ {
		seed = append(seed, randEntry(r))
	}
	tbl.AddBatch(seed)

	const readers = 4
	var passes atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			pkts := make([]pkt.Packet, 32)
			for i := range pkts {
				pkts[i] = randPacket(rr, seed2Entries)
			}
			last := make([]*FlowEntry, len(pkts))
			out := make([]pkt.Packet, 0, 4*len(pkts))
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, p := range pkts {
					e := tbl.Lookup(p)
					if e != nil && !e.Match.Matches(p) {
						t.Errorf("lookup returned non-matching entry %s for %v", e, p)
						return
					}
					if last[i] != nil && e != last[i] && (e == nil || !entryBefore(e, last[i])) {
						t.Errorf("verdict for %v went backwards: %s after %s", p, entryID(e), entryID(last[i]))
						return
					}
					last[i] = e
				}
				out = tbl.ProcessBatch(pkts, out[:0], nil)
				passes.Add(1)
			}
		}(int64(g) + 200)
	}

	mut := rand.New(rand.NewSource(9))
	for step := 0; step < 300 && !t.Failed(); step++ {
		var batch []*FlowEntry
		for i := 0; i < 1+mut.Intn(5); i++ {
			batch = append(batch, randEntry(mut))
		}
		tbl.AddBatch(batch)
		for seen := passes.Load(); passes.Load() == seen && !t.Failed(); {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()

	rr := rand.New(rand.NewSource(77))
	for i := 0; i < 200; i++ {
		p := randPacket(rr, seed2Entries)
		if got, want := tbl.Lookup(p), tbl.LookupNaive(p); got != want {
			t.Fatalf("post-quiesce: compiled %s != naive %s for %v", entryID(got), entryID(want), p)
		}
	}
}

// seed2Entries gives concurrent readers a stable entry set to bias
// probe destinations with (the live table mutates underneath them).
var seed2Entries = func() []*FlowEntry {
	r := rand.New(rand.NewSource(5))
	var es []*FlowEntry
	for i := 0; i < 20; i++ {
		es = append(es, randEntry(r))
	}
	return es
}()

// TestLookupZeroAllocWarm asserts the warm-cache hot path — hit, miss,
// and the batched form — performs zero allocations per packet.
func TestLookupZeroAllocWarm(t *testing.T) {
	tbl := NewFlowTable()
	r := rand.New(rand.NewSource(31))
	// Every entry pins InPort to 0..7 so a packet on port 200 is a
	// guaranteed miss; destinations spread over random /24s.
	var es []*FlowEntry
	for i := 0; i < 1000; i++ {
		e := randEntry(r)
		e.Match = e.Match.InPort(pkt.PortID(i % 8))
		es = append(es, e)
	}
	tbl.AddBatch(es)
	tbl.Precompile()

	hit := randPacket(r, es)
	hit.InPort = pkt.PortID(0)
	for i := 0; tbl.LookupNaive(hit) == nil; i++ {
		hit = randPacket(r, es)
		hit.InPort = pkt.PortID(i % 8)
	}
	missPkt := pkt.Packet{InPort: 200, DstIP: 1, EthType: 0x9999}
	if tbl.LookupNaive(missPkt) != nil {
		t.Fatal("setup: port-200 probe unexpectedly matched")
	}
	tbl.Lookup(hit) // warm
	tbl.Lookup(missPkt)

	if n := testing.AllocsPerRun(200, func() { tbl.Lookup(hit) }); n != 0 {
		t.Errorf("warm hit Lookup allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { tbl.Lookup(missPkt) }); n != 0 {
		t.Errorf("warm miss Lookup allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { tbl.Process(missPkt) }); n != 0 {
		t.Errorf("miss Process allocates %.1f/op, want 0", n)
	}

	in := make([]pkt.Packet, 64)
	for i := range in {
		if i%2 == 0 {
			in[i] = hit
		} else {
			in[i] = missPkt
		}
	}
	out := make([]pkt.Packet, 0, 256)
	tbl.ProcessBatch(in, out[:0], nil) // warm every header in the batch
	if n := testing.AllocsPerRun(100, func() { out = tbl.ProcessBatch(in, out[:0], nil) }); n != 0 {
		t.Errorf("warm ProcessBatch allocates %.1f/op, want 0", n)
	}
}

// TestRevalidationZeroAlloc: carrying a cached verdict across an install
// — fold, restamp in place — allocates nothing, whether the new entry
// takes the key over or not, and never leaves the cache.
func TestRevalidationZeroAlloc(t *testing.T) {
	const runs = 100
	tbl := NewFlowTable()
	tbl.Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(1)}})
	keys := make([]pkt.Packet, runs+1) // AllocsPerRun calls once more to warm up
	for i := range keys {
		keys[i] = pkt.Packet{DstPort: uint16(80 + i%2), SrcPort: uint16(i)}
		tbl.Lookup(keys[i])
	}
	tbl.AddBatch([]*FlowEntry{
		{Priority: 9, Match: pkt.MatchAll.DstPort(80), Actions: []pkt.Action{pkt.Output(2)}},
		{Priority: 0, Match: pkt.MatchAll.DstPort(81), Actions: []pkt.Action{pkt.Output(3)}},
	})
	before, builds := tbl.Stats(), tbl.EngineBuilds()
	i := 0
	if n := testing.AllocsPerRun(runs, func() { tbl.Lookup(keys[i]); i++ }); n != 0 {
		t.Errorf("revalidating Lookup allocates %.1f/op, want 0", n)
	}
	after := tbl.Stats()
	if after.Hits != before.Hits+runs+1 || after.Misses != before.Misses || tbl.EngineBuilds() != builds {
		t.Fatalf("lookups were not revalidations: stats %+v -> %+v, builds %d -> %d", before, after, builds, tbl.EngineBuilds())
	}
	for _, p := range keys {
		if got, want := tbl.Lookup(p), tbl.LookupNaive(p); got != want {
			t.Fatalf("revalidated %s, naive %s for %v", entryID(got), entryID(want), p)
		}
	}
}

// TestDropPathSharedVerdict: a matched drop rule returns the shared
// empty (non-nil) slice, and appending to a returned verdict cannot
// corrupt it for other callers.
func TestDropPathSharedVerdict(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll})
	out := tbl.Process(pkt.Packet{})
	if out == nil || len(out) != 0 {
		t.Fatalf("drop verdict = %v (nil=%v), want empty non-nil", out, out == nil)
	}
	_ = append(out, pkt.Packet{DstPort: 1}) // must copy, not share
	again := tbl.Process(pkt.Packet{})
	if len(again) != 0 {
		t.Fatalf("shared drop verdict corrupted: %v", again)
	}
	if n := testing.AllocsPerRun(200, func() { tbl.Process(pkt.Packet{}) }); n != 0 {
		t.Errorf("drop Process allocates %.1f/op, want 0", n)
	}
}

// TestCacheCapacityBound: the cache never exceeds its configured bound.
func TestCacheCapacityBound(t *testing.T) {
	tbl := NewFlowTable()
	tbl.SetCacheCapacity(8) // 8 per shard, 16 shards -> ≤128 verdicts
	tbl.Add(&FlowEntry{Priority: 1, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(1)}})
	for i := 0; i < 10000; i++ {
		tbl.Lookup(pkt.Packet{DstIP: iputil.Addr(i), DstPort: uint16(i)})
	}
	if n := tbl.Stats().Entries; n > 16*8 {
		t.Fatalf("cache holds %d verdicts, bound is %d", n, 16*8)
	}
}

// TestEngineBuildsLazy: the dispatch structure is built only when a
// cache-missing lookup finds it behind the add-log's floor — never
// before the first lookup, never for an additive install the log still
// covers, once per destructive mutation or slid-past window — or when
// Precompile asks for one at the current generation.
func TestEngineBuildsLazy(t *testing.T) {
	tbl := NewFlowTable()
	port := uint16(0)
	add := func() {
		port++
		tbl.Add(&FlowEntry{Priority: int(port), Match: pkt.MatchAll.DstPort(port), Actions: []pkt.Action{pkt.Output(1)}})
	}
	// missLookup looks up a never-seen header, so the engine (and not the
	// cache) must answer, and checks it answers for the newest rule.
	src := uint16(0)
	missLookup := func() {
		t.Helper()
		src++
		if e := tbl.Lookup(pkt.Packet{DstPort: port, SrcPort: src}); e == nil || e.Priority != int(port) {
			t.Fatalf("lookup for rule %d = %s", port, entryID(e))
		}
	}
	wantBuilds := func(want uint64, when string) {
		t.Helper()
		if got := tbl.EngineBuilds(); got != want {
			t.Fatalf("EngineBuilds = %d %s, want %d", got, when, want)
		}
	}

	for i := 0; i < 10; i++ {
		add()
	}
	wantBuilds(0, "before any lookup")
	missLookup()
	missLookup()
	wantBuilds(1, "after lookups at one generation")

	for i := 0; i < addLogBound; i++ {
		add()
		missLookup()
	}
	wantBuilds(1, "after a log's worth of additive installs")
	add()
	missLookup()
	wantBuilds(2, "once the floor slid past the engine")

	add()
	tbl.Precompile()
	wantBuilds(3, "after install+Precompile")
	tbl.Precompile()
	missLookup()
	wantBuilds(3, "with the engine already current")

	tbl.DeleteCookie(12345)
	wantBuilds(3, "after a destructive mutation nobody looked past")
	missLookup()
	missLookup()
	wantBuilds(4, "after the first lookup past a destructive mutation")
	tbl.Replace(7, nil)
	tbl.Flush()
	add()
	missLookup()
	wantBuilds(5, "after several destructive mutations and one lookup")
}
