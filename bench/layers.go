package main

import (
	"net"
	"runtime"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/openflow"
	"sdx/internal/pkt"
	"sdx/internal/rs"
	"sdx/internal/workload"
)

// Per-layer figures the traced run cannot read off its spans or the
// controller's registry are taken here from outside, by timing calls
// into each layer's public functions on the workload's own inputs.
// Everything runs on replicas and scratch tables, so the system under
// test is not disturbed.

// layerSamples is how many calls each timing takes the median of.
const layerSamples = 400

// measureCodec is bgp.Marshal + bgp.Unmarshal per UPDATE, in µs.
func measureCodec(updates []*bgp.Update) (float64, error) {
	var each []float64
	for i := 0; i < layerSamples; i++ {
		u := updates[i%len(updates)]
		start := time.Now()
		buf, err := bgp.Marshal(u)
		if err != nil {
			return 0, err
		}
		if _, _, err := bgp.Unmarshal(buf); err != nil {
			return 0, err
		}
		each = append(each, us(time.Since(start)))
	}
	return median(each), nil
}

// measureControlReplica times the route server's decision process and
// the ingest queue's Enqueue on a replica of the exchange loaded with
// the same table, in µs per update.
func measureControlReplica(fix fixture, from []uint32, updates [][]*bgp.Update) (applyUS, enqueueUS float64, err error) {
	replica, _, late, err := fix.build()
	if err == nil {
		err = workload.InstallPolicies(replica, late)
	}
	if err != nil {
		return 0, 0, err
	}
	var apply, enqueue []float64
	for i := 0; i < layerSamples; i++ {
		k := i % len(from)
		u := updates[k][(i/len(from))%len(updates[k])]
		start := time.Now()
		replica.RouteServer().Apply([]rs.PeerUpdate{{From: from[k], Update: u}})
		apply = append(apply, us(time.Since(start)))
	}
	q := core.NewUpdateQueue(replica, core.QueueConfig{})
	defer q.Stop()
	for i := 0; i < layerSamples; i++ {
		k := i % len(from)
		u := updates[k][(i/len(from))%len(updates[k])]
		start := time.Now()
		if err := q.Enqueue(from[k], u); err != nil {
			return 0, 0, err
		}
		enqueue = append(enqueue, us(time.Since(start)))
	}
	return median(apply), median(enqueue), nil
}

// cloneEntries copies entries so a scratch table can own them.
func cloneEntries(es []*dataplane.FlowEntry) []*dataplane.FlowEntry {
	out := make([]*dataplane.FlowEntry, len(es))
	for i, e := range es {
		out[i] = e.Clone()
	}
	return out
}

// fastBatch is a fast-path-sized batch: n rules shaped like installed
// ones, at fast-band priority under a scratch cookie.
func fastBatch(model []*dataplane.FlowEntry, n, round int) []*dataplane.FlowEntry {
	const scratchCookie, fastPriority = 99, 3_000_000
	out := make([]*dataplane.FlowEntry, n)
	for i := range out {
		e := model[(round*n+i)%len(model)].Clone()
		e.Cookie, e.Priority = scratchCookie, fastPriority+i
		out[i] = e
	}
	return out
}

// measureChannel times the OpenFlow channel against a scratch switch
// behind its own agent on loopback: a fast-path-sized Add + Barrier in
// µs, and a full-table Replace + Barrier in ms.
func measureChannel(entries []*dataplane.FlowEntry, fastRules int) (addRTTUS, replaceMS float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	agentDone := make(chan struct{})
	go func() {
		defer close(agentDone)
		// Returns when the listener below is closed.
		_ = openflow.NewAgent(dataplane.NewSwitch("scratch")).ListenAndServe(ln)
	}()
	defer func() {
		_ = ln.Close()
		<-agentDone
	}()
	c, err := openflow.Dial(ln.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	c.Start()
	m := openflow.Mirror{C: c}

	var replace, add []float64
	for i := 0; i < 8; i++ {
		start := time.Now()
		m.Replace(1, entries)
		if err := c.Barrier(); err != nil {
			return 0, 0, err
		}
		replace = append(replace, ms(time.Since(start)))
	}
	for i := 0; i < layerSamples; i++ {
		batch := fastBatch(entries, fastRules, i)
		start := time.Now()
		m.AddBatch(batch)
		if err := c.Barrier(); err != nil {
			return 0, 0, err
		}
		add = append(add, us(time.Since(start)))
	}
	return median(add), median(replace), nil
}

type tableFigures struct {
	installUS     float64 // FlowTable.AddBatch of a fast-path-sized batch
	engineBuildMS float64 // Precompile after a mutation
	lookupHitNS   float64 // ProcessBatch per packet, working set inside the cache
	lookupMissNS  float64 // ProcessBatch per packet, working set 4× the cache
	allocsPerPkt  float64
}

// measureTable times the dataplane on a scratch table holding a copy of
// the installed rules.
func measureTable(entries []*dataplane.FlowEntry, fastRules int, seed int64) tableFigures {
	var f tableFigures
	t := dataplane.NewFlowTable()
	t.AddBatch(cloneEntries(entries))
	t.Precompile()

	f.lookupHitNS, f.allocsPerPkt = lookupNS(t, buildRing(seed, entries, workingSetSteady))
	f.lookupMissNS, _ = lookupNS(t, buildRing(seed, entries, workingSetScatter))

	var install, build []float64
	for i := 0; i < layerSamples; i++ {
		batch := fastBatch(entries, fastRules, i)
		start := time.Now()
		t.AddBatch(batch)
		install = append(install, us(time.Since(start)))
		if i%20 == 0 {
			start = time.Now()
			t.Precompile()
			build = append(build, ms(time.Since(start)))
		}
	}
	f.installUS, f.engineBuildMS = median(install), median(build)
	return f
}

// lookupNS is ProcessBatch time per packet over two passes of the ring
// after one warming pass, and heap allocations per packet.
func lookupNS(t *dataplane.FlowTable, r *ring) (ns, allocs float64) {
	out := make([]pkt.Packet, 0, 4*batchSize)
	pass := func() {
		for b := 0; b < r.batches(); b++ {
			_, ps := r.batch(b)
			out = t.ProcessBatch(ps, out[:0], nil)
		}
	}
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	pass()
	pass()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	pkts := float64(2 * len(r.pkts))
	return float64(elapsed.Nanoseconds()) / pkts, float64(after.Mallocs-before.Mallocs) / pkts
}
