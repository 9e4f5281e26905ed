package experiments

import (
	"fmt"
	"runtime"
	"time"

	"sdx/internal/compiletest"
	"sdx/internal/core"
	"sdx/internal/rs"
	"sdx/internal/workload"
)

// ScaleCase is one full-table scale benchmark configuration: an IXP
// loaded to steady state, then driven with sustained hot-prefix churn
// through two ingestion paths — the serial per-update reference
// (one-update ApplyBatch calls in a loop) and the batch-first path (coalescing
// UpdateQueue draining into ApplyBatch). Controller-resident cases are
// bounded by participants × prefixes (the route server keeps a per-viewer
// Loc-RIB); the 1M-prefix generator profiles (workload.ScaleProfiles)
// exist for trace synthesis via bgpgen and are not loaded here.
type ScaleCase struct {
	Name         string
	Participants int
	Prefixes     int
	Updates      int
	// HotShare is the churn skew: the fraction of updates aimed at the
	// hot 1% of prefixes (flap-storm heavy, the shape coalescing exists
	// for). Zero means workload.DefaultChurn's 0.8.
	HotShare float64
}

// ScaleCases are the standard benchmark rows. "participants1000" is the
// headline configuration: 1000 participants, the scale the paper's §6
// extrapolates to, where the coalesced batch path must sustain at least
// MinScaleSpeedup times the serial baseline's update rate.
var ScaleCases = []ScaleCase{
	{Name: "ci", Participants: 100, Prefixes: 20_000, Updates: 40_000, HotShare: 0.9},
	{Name: "participants1000", Participants: 1000, Prefixes: 5_000, Updates: 60_000, HotShare: 0.9},
}

// MinScaleSpeedup is the acceptance floor for the coalesced path's
// sustained update rate over the serial baseline at 1000 participants.
const MinScaleSpeedup = 4.0

// ScaleResult is one benchmark row's measurements.
type ScaleResult struct {
	Case        ScaleCase
	LoadTime    time.Duration // full-table load (announcements + decisions)
	CompileTime time.Duration // initial full compilation
	Groups      int
	Rules       int
	HeapPerPfx  float64 // resident heap bytes per loaded prefix

	SerialTime    time.Duration // churn via one-update ApplyBatch loop
	SerialRate    float64       // updates/s sustained, serial path
	CoalescedTime time.Duration // same churn via UpdateQueue (enqueue..Stop)
	CoalescedRate float64       // offered updates/s sustained, queue path
	Applied       int64         // coalesced entries actually applied
	CoalesceRatio float64       // offered / applied
	Speedup       float64       // CoalescedRate / SerialRate

	InstallP50 time.Duration // first-enqueue -> rules-installed latency
	InstallP95 time.Duration
	InstallP99 time.Duration

	Identical bool // post-churn full recompiles byte-identical across paths
}

// Scale runs one benchmark case. Both controllers are built from
// identical workloads; the same churn trace is driven through each path
// and the end states are required to be byte-identical (the coalescing
// soundness property, asserted here on every benchmark run, not just in
// the test suite).
func Scale(c ScaleCase, seed int64) (*ScaleResult, error) {
	res := &ScaleResult{Case: c}

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	build := func() (*core.Controller, *workload.IXP, error) {
		x := workload.NewIXP(workload.DefaultTopology(c.Participants, c.Prefixes, seed))
		ctrl, err := workload.Load(x)
		if err != nil {
			return nil, nil, err
		}
		return ctrl, x, nil
	}

	loadStart := time.Now()
	serialCtrl, x, err := build()
	if err != nil {
		return nil, err
	}
	res.LoadTime = time.Since(loadStart)
	compileStart := time.Now()
	rep := serialCtrl.Recompile()
	if rep.Err != nil {
		return nil, rep.Err
	}
	res.CompileTime = time.Since(compileStart)
	res.Groups, res.Rules = rep.Groups, rep.Rules

	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if c.Prefixes > 0 && m1.HeapAlloc > m0.HeapAlloc {
		res.HeapPerPfx = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(c.Prefixes)
	}

	coalCtrl, _, err := build()
	if err != nil {
		return nil, err
	}
	if rep := coalCtrl.Recompile(); rep.Err != nil {
		return nil, rep.Err
	}

	// One shared trace: rs.Apply clones path attributes per NLRI, so the
	// same Update values can safely feed both controllers.
	churnCfg := workload.DefaultChurn(c.Updates, seed+7)
	if c.HotShare > 0 {
		churnCfg.HotShare = c.HotShare
	}
	tr := workload.GenerateChurn(x, churnCfg)

	serialStart := time.Now()
	for _, e := range tr.Events {
		serialCtrl.ApplyBatch(rs.PeerUpdate{From: e.Peer, Update: e.Update})
	}
	res.SerialTime = time.Since(serialStart)
	res.SerialRate = float64(len(tr.Events)) / res.SerialTime.Seconds()

	q := core.NewUpdateQueue(coalCtrl, core.QueueConfig{})
	coalStart := time.Now()
	for _, e := range tr.Events {
		if err := q.Enqueue(e.Peer, e.Update); err != nil {
			return nil, err
		}
	}
	q.Stop() // final drain: every offered update is applied or coalesced away
	res.CoalescedTime = time.Since(coalStart)
	res.CoalescedRate = float64(len(tr.Events)) / res.CoalescedTime.Seconds()
	st := q.Stats()
	res.Applied = st.Applied
	if st.Applied > 0 {
		res.CoalesceRatio = float64(st.Enqueued) / float64(st.Applied)
	}
	if res.SerialRate > 0 {
		res.Speedup = res.CoalescedRate / res.SerialRate
	}

	h := coalCtrl.Metrics().Snapshot().Histograms["ingest.install_ns"]
	res.InstallP50 = time.Duration(h.P50)
	res.InstallP95 = time.Duration(h.P95)
	res.InstallP99 = time.Duration(h.P99)

	// Coalescing soundness, asserted on real benchmark state: after a
	// full recompile the two paths must agree byte for byte.
	if rep := serialCtrl.Recompile(); rep.Err != nil {
		return nil, rep.Err
	}
	if rep := coalCtrl.Recompile(); rep.Err != nil {
		return nil, rep.Err
	}
	res.Identical = serialCtrl.Compiled().Canonical() == coalCtrl.Compiled().Canonical() &&
		linesEqual(compiletest.RIBDump(serialCtrl), compiletest.RIBDump(coalCtrl))
	if !res.Identical {
		return res, fmt.Errorf("scale %s: coalesced end state diverged from serial", c.Name)
	}
	return res, nil
}

func linesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
