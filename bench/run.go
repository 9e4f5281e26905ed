package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/core"
)

// A run is three equal back-to-back segments, and a metric is the median
// of its three segment values, so that one disturbed segment (an
// optimizer pass, a collection, a noisy neighbour) does not move the
// result. A segment loads one layer at a time, in this order and with
// these shares of its length; on a churn workload the first and the last
// phase run side by side, for their combined share.
const (
	segments       = 3
	sharePaced     = 0.4 // open loop, 200 UPDATE/s  → converge_p50_ms
	shareBurst     = 0.2 // open-loop dump           → updates_per_s
	shareRecompile = 0.2 // closed loop, one client  → recompile_p50_ms
	shareForward   = 0.2 // one stream goroutine     → fwd_mpps
)

func share(d time.Duration, s float64) time.Duration { return time.Duration(float64(d) * s) }

// stream draws the workload's packet stream from the installed rules.
// It first runs the optimizer's pass if one is pending, so that the
// rules are the optimized bands only: a pass under the stream removes
// the fast band, and packets drawn from it would start to miss.
func (s *system) stream(w workloadSpec, seed int64) (*ring, error) {
	if s.ctrl.Dirty() {
		if rep := s.ctrl.Recompile(); rep.Err != nil {
			return nil, rep.Err
		}
		if err := s.of.Barrier(); err != nil {
			return nil, err
		}
	}
	return buildRing(seed, s.ctrl.Switch().Table().Entries(), w.workingSet), nil
}

// pacedPhase runs the paced feed for dur. On a churn workload the
// forwarding stream runs beside it, on its own goroutine.
func (s *system) pacedPhase(w workloadSpec, dur time.Duration, seed int64, nextID *int) (pacedResult, forwardResult, error) {
	if !w.churn {
		return s.runPaced(dur, seed, nextID), forwardResult{}, nil
	}
	r, err := s.stream(w, seed)
	if err != nil {
		return pacedResult{}, forwardResult{}, err
	}
	var stop atomic.Bool
	var fwd forwardResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fwd = s.runForward(r, &stop)
	}()
	paced := s.runPaced(dur, seed, nextID)
	stop.Store(true)
	wg.Wait()
	return paced, fwd, nil
}

// forwardPhase streams for dur with the control plane idle.
func (s *system) forwardPhase(w workloadSpec, dur time.Duration, seed int64) (forwardResult, error) {
	r, err := s.stream(w, seed)
	if err != nil {
		return forwardResult{}, err
	}
	var stop atomic.Bool
	timer := time.AfterFunc(dur, func() { stop.Store(true) })
	defer timer.Stop()
	res := s.runForward(r, &stop)
	// The ring is the harness's, up to 56 MB of it: collect it now, or it
	// inflates the heap the next phases' collections have to pace against.
	r = nil
	runtime.GC()
	return res, nil
}

// setMetric records a measured metric under the unit its definition gives.
func setMetric(rep *report, name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				rep.Metrics[name] = value{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("bench: metric " + name + " is not defined in main.go")
}

// runMeasured is the untraced run: it reports the end-to-end metrics.
func runMeasured(w workloadSpec, rep *report, opt options) error {
	var setups []float64
	var s *system
	for i := 0; i < opt.setupRepeats; i++ {
		if s != nil {
			s.teardown()
		}
		start := time.Now()
		var err error
		if s, err = setup(w.fix, nil); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.teardown()
	setMetric(rep, "setup_s", median(setups))
	setMetric(rep, "heap_mb", heapMB())
	rep.Detail["setup_s_each"] = setups
	rep.Detail["targets"] = len(s.targets)

	seg := time.Duration(rep.Seconds * float64(time.Second) / segments)
	feed := newBurstFeed(s, rep.Seed, segments, share(seg, shareBurst))

	var converge, updatesPerS, mpps, recompile []float64
	var paced pacedResult
	var burstSent, packets, delivered, checked, rules, groups int
	var genShare, recompileEach []float64
	nextID := 0
	for k := 0; k < segments; k++ {
		pacedShare := sharePaced
		if w.churn {
			pacedShare += shareForward
		}
		segSeed := rep.Seed + int64(k)
		pr, fwd, err := s.pacedPhase(w, share(seg, pacedShare), segSeed, &nextID)
		if err != nil {
			return err
		}
		burst := s.runBurst(feed)
		rc := s.runRecompile(share(seg, shareRecompile))
		if !w.churn {
			if fwd, err = s.forwardPhase(w, share(seg, shareForward), segSeed); err != nil {
				return err
			}
		}
		if len(pr.latencyMS) == 0 {
			return fmt.Errorf("segment %d: no update converged (%v)", k, pr.failures)
		}
		converge = append(converge, median(pr.latencyMS))
		updatesPerS = append(updatesPerS, float64(burst.sent)/burst.elapsed.Seconds())
		mpps = append(mpps, fwd.mpps())
		recompile = append(recompile, median(rc.ms))
		recompileEach = append(recompileEach, rc.ms...)
		genShare = append(genShare, fwd.genOnly.Seconds()/fwd.elapsed.Seconds())

		paced.merge(pr)
		burstSent += burst.sent
		packets, delivered, checked = packets+fwd.packets, delivered+fwd.delivered, checked+fwd.checked
		rules, groups = rc.rules, rc.groups
		rep.failAll(pr.failures)
		rep.failAll(burst.failures)
		rep.failAll(rc.failures)
		rep.fail("packets whose remote emit count differs from the local model's", fwd.failed)
	}
	setMetric(rep, "converge_p50_ms", median(converge))
	setMetric(rep, "updates_per_s", median(updatesPerS))
	setMetric(rep, "fwd_mpps", median(mpps))
	setMetric(rep, "recompile_p50_ms", median(recompile))

	rep.Attempted = paced.attempted + burstSent + len(recompileEach) + packets
	s.finalChecks(rep)
	s.pacedDetail(rep, paced)
	tail, pct := highQuantile(paced.latencyMS)
	rep.Detail["converge_tail_ms"] = tail
	rep.Detail["converge_tail_percentile"] = pct
	rep.Detail["segments"] = map[string][]float64{
		"converge_p50_ms": converge, "updates_per_s": updatesPerS, "fwd_mpps": mpps, "recompile_p50_ms": recompile,
	}
	rep.Detail["burst_updates_sent"] = burstSent
	rep.Detail["recompile_ms_each"] = recompileEach
	rep.Detail["policy_rules"], rep.Detail["policy_groups"] = rules, groups
	rep.Detail["packets_offered"], rep.Detail["packets_delivered"], rep.Detail["packets_checked"] = packets, delivered, checked
	rep.Detail["generator_share_of_fwd_time"] = median(genShare)
	rep.Detail["queue"] = s.queue.Stats()
	rep.Detail["remote_packet_ins"] = s.remote.PacketIns()
	return nil
}

// pacedDetail records the open-loop hygiene figures and marks the run
// invalid when the generator, not the system, was the slow part.
func (s *system) pacedDetail(rep *report, p pacedResult) {
	p99 := quantile(p.latenessMS, 0.99)
	rep.Detail["paced_updates"] = p.attempted
	rep.Detail["paced_converged"] = len(p.latencyMS)
	rep.Detail["paced_sends_scheduled"] = p.slots
	rep.Detail["paced_sends_skipped"] = p.skipped
	rep.Detail["generator_lateness_p50_ms"] = median(p.latenessMS)
	rep.Detail["generator_lateness_p99_ms"] = p99
	if p.attempted > 0 {
		rep.Detail["probes_per_update"] = float64(p.probes) / float64(p.attempted)
	}
	if p99 > maxLatenessMS {
		rep.Valid = false
		rep.Invalid = append(rep.Invalid, fmt.Sprintf("generator lateness p99 %.2f ms exceeds %.0f ms", p99, maxLatenessMS))
	}
	if float64(p.skipped) > maxSkippedShare*float64(p.slots) {
		rep.Valid = false
		rep.Invalid = append(rep.Invalid, fmt.Sprintf("%d of %d scheduled sends skipped", p.skipped, p.slots))
	}
	if generators := 2; generators > runtime.NumCPU() {
		rep.Valid = false
		rep.Invalid = append(rep.Invalid, fmt.Sprintf("%d generator goroutines on %d CPU", generators, runtime.NumCPU()))
	}
}

// finalChecks are the output checks every run ends with.
func (s *system) finalChecks(rep *report) {
	rep.Attempted++
	if err := s.checkTables(); err != nil {
		rep.fail(err.Error(), 1)
	}
	checked, failed := s.checkRIB()
	rep.Attempted += checked
	rep.fail("Adj-RIB-In entry differs from the last action sent", failed)
}

// runTraced is the traced run: it records spans around the seams the
// bench owns and reports the per-layer metrics.
func runTraced(w workloadSpec, rep *report, opt options) error {
	rec := &recorder{}
	s, err := setup(w.fix, rec)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer s.teardown()
	unregister, err := s.ctrl.OnRoute(s.viewer.as, func(ad core.RouteAd) { rec.advertised(s.viewer, ad) })
	if err != nil {
		return err
	}
	defer unregister()
	// The paced time is four parts, traced on the outer two and not on
	// the inner two, so that warm-up and drift weigh on both alike and
	// their difference is the tracing overhead. The other phases run once.
	total := time.Duration(rep.Seconds * float64(time.Second))
	const pacedParts = 4
	feed := newBurstFeed(s, rep.Seed, 1, share(total, shareBurst/2))
	blocked := s.ctrl.Metrics().Counter("ingest.blocked")
	blocked0, builds0 := blocked.Value(), s.remote.Table().EngineBuilds()
	epoch := time.Now()
	cache0 := s.remote.Table().Stats()
	deltas := make(histDeltas)

	nextID := 0
	var untraced, traced pacedResult
	var fwd forwardResult
	pacedShare := 1 - shareBurst/2 - shareRecompile/2 - shareForward
	if w.churn {
		pacedShare += shareForward
	}
	for part := 0; part < pacedParts; part++ {
		on := part == 0 || part == pacedParts-1
		rec.mu.Lock()
		rec.on = on
		rec.mu.Unlock()
		hists := markHists(s.ctrl)
		pr, f, err := s.pacedPhase(w, share(total, pacedShare/pacedParts), rep.Seed+int64(part), &nextID)
		if err != nil {
			return err
		}
		deltas.add(hists, markHists(s.ctrl))
		if len(pr.latencyMS) == 0 {
			return fmt.Errorf("no update converged (%v)", pr.failures)
		}
		if on {
			traced.merge(pr)
		} else {
			untraced.merge(pr)
		}
		fwd.add(f)
	}
	q0 := s.queue.Stats()
	burst := s.runBurst(feed)
	q1 := s.queue.Stats()
	coalesce := float64(q1.Coalesced-q0.Coalesced) / float64(max(q1.Enqueued-q0.Enqueued, 1))
	rc := s.runRecompile(share(total, shareRecompile/2))
	if !w.churn {
		cache0 = s.remote.Table().Stats()
		if fwd, err = s.forwardPhase(w, share(total, shareForward), rep.Seed); err != nil {
			return err
		}
	}
	cache1 := s.remote.Table().Stats()

	tr := buildTrace(traced.updates, epoch)
	if tr.Updates == 0 {
		return errors.New("no traced update passed every seam")
	}
	tr.Workload, tr.Seed, tr.Registry = w.Name, rep.Seed, deltas
	path, err := tr.write(opt.outDir)
	if err != nil {
		return err
	}

	// End-to-end figures of the traced run.
	all := untraced
	all.merge(traced)
	tail, pct := highQuantile(all.latencyMS)
	offP50 := median(untraced.latencyMS)
	setMetric(rep, "converge_tail_ms", tail)
	setMetric(rep, "gen.lateness_p99_ms", quantile(all.latenessMS, 0.99))
	setMetric(rep, "trace.converge_p50_ms", tr.ConvergeP50MS)
	setMetric(rep, "trace.overhead_pct", 100*(median(traced.latencyMS)-offP50)/offP50)
	for _, name := range stageNames {
		setMetric(rep, stageMetric(name), tr.WaterfallMS[name])
	}

	// Layer figures read off the spans and the controller's registry.
	var adv, stage2, ofSend, advertise []float64
	for _, u := range traced.updates {
		if b, ok := u.stages(); ok {
			stage2 = append(stage2, us(b[2].Sub(b[1])))
			ofSend = append(ofSend, us(b[3].Sub(b[2])))
			advertise = append(advertise, us(b[4].Sub(b[3])))
			adv = append(adv, us(b[5].Sub(b[4])))
		}
	}
	applyWall := deltas["controller.update_ns"].p50US()
	decision := deltas["rs.decision_ns"].p50US()
	inSinks := median(ofSend) + median(advertise)
	setMetric(rep, "bgp.adv_us", median(adv))
	setMetric(rep, "ingest.wait_ms", (median(stage2)-(applyWall-inSinks))/1e3)
	setMetric(rep, "ingest.coalesce_ratio", coalesce)
	setMetric(rep, "ingest.blocked", float64(blocked.Value()-blocked0))
	setMetric(rep, "ingest.drains", float64(s.queue.Stats().Drains))
	setMetric(rep, "rs.decision_us", decision)
	setMetric(rep, "core.fastpath_us", applyWall-decision-inSinks)
	setMetric(rep, "core.fast_rules_per_update", mean(rec.addRules))
	setMetric(rep, "policy.compile_ms", median(rc.compileMS))
	setMetric(rep, "policy.rules", float64(rc.rules))
	setMetric(rep, "policy.groups", float64(rc.groups))
	setMetric(rep, "openflow.flowmods", float64(s.of.ChannelStats().FlowMods))
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	setMetric(rep, "dataplane.cache_hit_rate", float64(hits)/float64(max(hits+misses, 1)))
	setMetric(rep, "dataplane.engine_builds", float64(s.remote.Table().EngineBuilds()-builds0))
	setMetric(rep, "dataplane.packet_ins", float64(s.remote.PacketIns()))

	// Layer figures taken from outside, on replicas and scratch tables.
	entries := s.ctrl.Switch().Table().Entries()
	fastRules := max(1, int(mean(rec.addRules)+0.5))
	codec, err := measureCodec(feed.events[0])
	if err != nil {
		return err
	}
	from := []uint32{s.announcers[0].as, s.announcers[1].as}
	apply, enqueue, err := measureControlReplica(w.fix, from, [][]*bgp.Update{feed.events[0], feed.events[1]})
	if err != nil {
		return err
	}
	addRTT, replace, err := measureChannel(entries, fastRules)
	if err != nil {
		return err
	}
	tf := measureTable(entries, fastRules, rep.Seed)
	setMetric(rep, "bgp.codec_us", codec)
	setMetric(rep, "rs.apply_us", apply)
	setMetric(rep, "ingest.enqueue_us", enqueue)
	setMetric(rep, "openflow.add_rtt_us", addRTT)
	setMetric(rep, "openflow.replace_ms", replace)
	setMetric(rep, "dataplane.install_us", tf.installUS)
	setMetric(rep, "dataplane.engine_build_ms", tf.engineBuildMS)
	setMetric(rep, "dataplane.lookup_hit_ns", tf.lookupHitNS)
	setMetric(rep, "dataplane.lookup_miss_ns", tf.lookupMissNS)
	setMetric(rep, "dataplane.allocs_per_pkt", tf.allocsPerPkt)

	rep.Attempted = all.attempted + burst.sent + len(rc.ms) + fwd.packets
	rep.failAll(all.failures)
	rep.failAll(burst.failures)
	rep.failAll(rc.failures)
	rep.fail("packets whose remote emit count differs from the local model's", fwd.failed)
	s.finalChecks(rep)
	s.pacedDetail(rep, all)
	rep.Detail["converge_tail_percentile"] = pct
	rep.Detail["untraced_converge_p50_ms"] = offP50
	rep.Detail["traced_converge_p50_ms"] = median(traced.latencyMS)
	rep.Detail["trace_file"] = path
	rep.Detail["updates_traced"] = tr.Updates
	rep.Detail["waterfall_sum_ms"] = tr.WaterfallSumMS
	rep.Detail["self_time_ms_total"] = tr.SelfTimeMS
	rep.Detail["registry_deltas"] = deltas
	rep.Detail["openflow_mirror_replace_ms_p50"] = median(rec.replaceMS)
	return nil
}
