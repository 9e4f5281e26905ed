package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/trafficgen"
	"sdx/internal/workload"
)

// send transmits one UPDATE on the router's session and remembers the
// last action per prefix for the end-of-run Adj-RIB-In check. One
// goroutine drives a router at a time, so last needs no lock.
func (r *router) send(u *bgp.Update) error {
	for _, p := range u.Withdrawn {
		r.last[p] = nil
	}
	for _, p := range u.NLRI {
		r.last[p] = u.Attrs
	}
	return r.sess.SendUpdate(u)
}

// ---- paced-updates phase ---------------------------------------------------

// pacedRate is the open-loop update rate: a compressed Table-1 feed, two
// orders above real inter-arrival and far below what the system drains.
const pacedRate = 200

const (
	probeTimeout = time.Second
	// Beyond a generator-lateness p99 of maxLatenessMS, or with more than
	// maxSkippedShare of the scheduled sends skipped, a run says more
	// about the load generator than about the system.
	maxLatenessMS   = 5.0
	maxSkippedShare = 0.15
)

// pacedUpdate is one open-loop update from due time to first delivered
// probe. The marks after due are written under the viewer's mutex or by
// the one goroutine that owns the update at that stage.
type pacedUpdate struct {
	id     int
	salt   uint32
	prefix iputil.Prefix

	due       time.Time // when the open loop scheduled the send
	sendEnd   time.Time // SendUpdate returned
	sinkStart time.Time // rule sink entered (traced runs)
	sinkEnd   time.Time // rule sink returned (traced runs)
	advSink   time.Time // controller advertised to the viewer (traced runs)
	advRecv   time.Time // viewer session delivered the advertisement
	lastMiss  time.Time // last probe the fabric did not deliver
	hit       time.Time // a probe was delivered

	advOrder int // which of the phase's advertisements was this update's (traced runs)
	rules    int // fast-band rules the update produced (traced runs)
	probes   int
	failed   string
}

type pacedResult struct {
	latencyMS  []float64 // delivered updates, due → hit
	updates    []*pacedUpdate
	attempted  int
	failures   map[string]int // reason → updates that failed for it
	latenessMS []float64
	slots      int // sends the schedule called for
	skipped    int // of those, not sent because the generator was a slot behind
	probes     int
}

func (r *pacedResult) merge(o pacedResult) {
	r.latencyMS = append(r.latencyMS, o.latencyMS...)
	r.updates = append(r.updates, o.updates...)
	r.attempted += o.attempted
	r.latenessMS = append(r.latenessMS, o.latenessMS...)
	r.slots += o.slots
	r.skipped += o.skipped
	r.probes += o.probes
	for k, v := range o.failures {
		if r.failures == nil {
			r.failures = make(map[string]int)
		}
		r.failures[k] += v
	}
}

// paced holds the state one paced phase shares between the pacer, the
// viewer's session reader and the prober.
type paced struct {
	s *system
	// pending is the update awaiting its advertisement, latest the last
	// update sent, per prefix. Both are guarded by s.viewer.mu.
	pending    map[iputil.Prefix]*pacedUpdate
	latest     map[iputil.Prefix]*pacedUpdate
	advertised int // advertisements the traced OnRoute sink has matched, guarded likewise
	// ready are the updates handed to the prober and not yet taken,
	// guarded likewise; wake tells the prober there are some, done that
	// the phase is over and it should take the rest and exit.
	ready []*pacedUpdate
	wake  chan struct{}
	done  chan struct{}
	res   pacedResult // owned by the prober until it exits
}

func saltOf(attrs *bgp.PathAttrs) (uint32, bool) {
	if len(attrs.ASPath) != 3 || attrs.ASPath[2] != pathMarker {
		return 0, false
	}
	return attrs.ASPath[1], true
}

// runPaced drives the open-loop feed for dur from the calling goroutine
// (generator goroutine 1) and returns once every update is delivered or
// has failed. seed fixes the send schedule; nextID numbers updates
// across phases.
func (s *system) runPaced(dur time.Duration, seed int64, nextID *int) pacedResult {
	interval := time.Second / pacedRate
	ph := &paced{
		s:       s,
		pending: make(map[iputil.Prefix]*pacedUpdate),
		latest:  make(map[iputil.Prefix]*pacedUpdate),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	ph.res.failures = make(map[string]int)
	s.viewer.setOnAd(ph.onAd)
	if s.spans != nil {
		s.spans.beginPaced(ph)
	}
	var proberDone sync.WaitGroup
	proberDone.Add(1)
	go func() {
		defer proberDone.Done()
		ph.proberLoop()
	}()

	// One optimizer pass lands in every paced phase, 60% in: sdxd's
	// default is a pass every 5 s, which is once per segment at the
	// default run length, but a free-running ticker would drift across
	// the phases from run to run and put its ~0.2 s stall under a
	// different metric each time.
	stopOptimizer := s.ctrl.StartOptimizer(dur * 6 / 10)
	start := time.Now()
	a := s.announcers[0]
	var lateness []float64
	skipped, sent := 0, 0
	// Each slot's send is due at a seeded random offset inside the slot:
	// a strictly periodic feed would hold a fixed phase against the
	// ingest queue's 2 ms drain timer for a whole phase, and the median
	// would report that phase, not the system.
	jitter := rand.New(rand.NewSource(seed))
	for slot := 0; time.Duration(slot+1)*interval <= dur; slot++ {
		due := start.Add(time.Duration(slot)*interval + time.Duration(jitter.Int63n(int64(interval))))
		sleepUntil(due)
		late := time.Since(due)
		if late > interval {
			// A slot's worth behind: sending now would bunch with the next.
			skipped++
			continue
		}
		lateness = append(lateness, ms(late))
		u := &pacedUpdate{id: *nextID, salt: uint32(*nextID%saltSpace) + 1, prefix: s.targets[*nextID%len(s.targets)], due: due}
		*nextID++
		s.viewer.mu.Lock()
		stale := ph.pending[u.prefix]
		ph.pending[u.prefix], ph.latest[u.prefix] = u, u
		s.viewer.mu.Unlock()
		if stale != nil {
			stale.failed = "not advertised before the prefix's next update"
			ph.hand(stale)
		}
		err := a.send(&bgp.Update{
			Attrs: &bgp.PathAttrs{ASPath: []uint32{a.as, u.salt, pathMarker}, NextHop: a.port.IP()},
			NLRI:  []iputil.Prefix{u.prefix},
		})
		u.sendEnd = time.Now() // read only by this goroutine, after the phase
		s.actionsSent.Add(1)
		sent++
		if err != nil {
			s.viewer.mu.Lock()
			delete(ph.pending, u.prefix)
			s.viewer.mu.Unlock()
			u.failed = "send: " + err.Error()
			ph.hand(u)
		}
	}

	stopOptimizer()

	// Let the tail finish: an update not advertised within the probe
	// timeout of its due time has failed.
	for deadline := time.Now().Add(probeTimeout); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		s.viewer.mu.Lock()
		left := len(ph.pending)
		s.viewer.mu.Unlock()
		if left == 0 {
			break
		}
	}
	s.viewer.mu.Lock()
	var lost []*pacedUpdate
	for p, u := range ph.pending {
		delete(ph.pending, p)
		lost = append(lost, u)
	}
	s.viewer.onAd = nil
	s.viewer.mu.Unlock()
	for _, u := range lost {
		u.failed = "no advertisement within 1s"
		ph.hand(u)
	}
	close(ph.done)
	proberDone.Wait()
	if s.spans != nil {
		s.spans.endPaced(ph)
	}

	ph.res.attempted = sent
	ph.res.latenessMS = lateness
	ph.res.slots = sent + skipped
	ph.res.skipped = skipped
	return ph.res
}

// sleepUntil returns at t as closely as the scheduler allows. Here a
// sleep of a millisecond or more overshoots by up to 0.4 ms and a
// shorter one by a whole millisecond, a fifth of the paced interval, so
// the sleep stops short and the last stretch is spent yielding.
func sleepUntil(t time.Time) {
	const margin, shortest = 600 * time.Microsecond, time.Millisecond
	if d := time.Until(t) - margin; d >= shortest {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// onAd runs on the viewer's session reader.
func (ph *paced) onAd(p iputil.Prefix, attrs *bgp.PathAttrs, at time.Time) {
	salt, ok := saltOf(attrs)
	if !ok {
		return
	}
	ph.s.viewer.mu.Lock()
	u := ph.pending[p]
	if u != nil && u.salt == salt {
		// Leaving pending and becoming ready is one step, so the end of
		// the phase finds an update in exactly one of the two.
		delete(ph.pending, p)
		u.advRecv = at
		ph.ready = append(ph.ready, u)
	} else {
		u = nil // an optimizer pass re-advertising an earlier path
	}
	ph.s.viewer.mu.Unlock()
	if u != nil {
		ph.wakeProber()
	}
}

// hand gives the prober an update that is in nobody else's hands.
func (ph *paced) hand(u *pacedUpdate) {
	ph.s.viewer.mu.Lock()
	ph.ready = append(ph.ready, u)
	ph.s.viewer.mu.Unlock()
	ph.wakeProber()
}

func (ph *paced) wakeProber() {
	select {
	case ph.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// proberLoop probes every update handed over, in order, until the phase
// is done and nothing is left.
func (ph *paced) proberLoop() {
	for {
		ph.s.viewer.mu.Lock()
		batch := ph.ready
		ph.ready = nil
		ph.s.viewer.mu.Unlock()
		for _, u := range batch {
			ph.s.probe(u)
			ph.finish(u)
		}
		if len(batch) > 0 {
			continue
		}
		select {
		case <-ph.wake:
		case <-ph.done:
			select {
			case <-ph.wake: // handed over just before done: take it
			default:
				return
			}
		}
	}
}

func (ph *paced) finish(u *pacedUpdate) {
	ph.res.updates = append(ph.res.updates, u)
	ph.res.probes += u.probes
	if u.failed != "" {
		ph.res.failures[u.failed]++
		return
	}
	ph.res.latencyMS = append(ph.res.latencyMS, ms(u.hit.Sub(u.due)))
}

// probe is the viewer's data plane reacting to its control plane: it
// resolves the virtual next hop the viewer now holds for the prefix,
// tags a packet with that VMAC and offers it to the remote switch until
// the fabric delivers it. The advertisement can overtake the flow-mod
// (Mirror does not barrier), so the retry time is part of the latency.
func (s *system) probe(u *pacedUpdate) {
	if u.failed != "" {
		return
	}
	v := s.viewer
	deadline := u.due.Add(probeTimeout)
	for {
		if nh, ok := v.nextHop(u.prefix); ok {
			if mac, ok := s.ctrl.ARP().Resolve(nh); ok {
				p := pkt.Packet{
					InPort: v.port.ID, SrcMAC: v.port.MAC(), DstMAC: mac, EthType: pkt.EthTypeIPv4,
					SrcIP: probeSrcIP, DstIP: u.prefix.Addr() + 1,
					Proto: pkt.ProtoTCP, SrcPort: 40000, DstPort: 80,
				}
				u.probes++
				if s.remote.Inject(v.port.ID, p) > 0 {
					u.hit = time.Now()
					got := pkt.PortID(s.probeEgress.Swap(noEgress))
					// The controller's own switch is the authoritative model.
					outs := s.ctrl.Switch().Table().Process(p)
					if len(outs) == 0 || outs[0].InPort != got {
						u.failed = "probe egress differs from the local model"
					}
					return
				}
				u.lastMiss = time.Now()
			}
		}
		if time.Now().After(deadline) {
			u.failed = "no delivered probe within 1s"
			return
		}
		runtime.Gosched()
	}
}

// ---- burst-updates phase ---------------------------------------------------

// burstFeed is the open-loop dump: a sustained-churn trace (1% hot set
// taking 90%, 20% withdrawals) of which each of the two top announcers
// writes its own events as fast as its session accepts. A burst phase
// is fixed work — the next perPhase events of the trace — so that two
// runs of one seed coalesce, decide and install exactly the same input.
type burstFeed struct {
	events   [2][]*bgp.Update
	cursor   [2]int
	perPhase int // events per phase, both announcers together
}

// burstNominalRate sizes a burst phase: the events it writes are what
// this rate would deliver in the phase's share of the run.
const burstNominalRate = 20000

func newBurstFeed(s *system, seed int64, phases int, phaseDur time.Duration) *burstFeed {
	// Cold prefixes take a tenth of the events. Capping a phase at ten
	// events per announced prefix keeps them from repeating much, so the
	// work is set by the trace and not by where the queue's drains happen
	// to fall between repeats (which on the 1000-prefix exchange swings
	// the rate by half).
	a, b := s.ixp.Participant(s.announcers[0].as), s.ixp.Participant(s.announcers[1].as)
	f := &burstFeed{perPhase: max(64, min(int(burstNominalRate*phaseDur.Seconds()), 10*(len(a.Prefixes)+len(b.Prefixes))))}
	// The trace is generated over the two announcers alone, so that every
	// seed gives them the same hot and cold shares.
	both := &workload.IXP{Participants: []workload.Participant{*a, *b}}
	seen := make(map[iputil.Prefix]bool)
	for _, p := range append(append([]iputil.Prefix(nil), a.Prefixes...), b.Prefixes...) {
		if !seen[p] {
			seen[p] = true
			both.Prefixes = append(both.Prefixes, p)
		}
	}
	tr := workload.GenerateChurn(both, workload.ChurnConfig{
		Seed: seed, Updates: phases * f.perPhase, HotFraction: 0.01, HotShare: 0.9, WithdrawFraction: 0.2,
	})
	for _, ev := range tr.Events {
		for i, r := range s.announcers {
			if ev.Peer == r.as {
				f.events[i] = append(f.events[i], ev.Update)
			}
		}
	}
	return f
}

type burstResult struct {
	sent     int
	elapsed  time.Duration // first send → applied and barrier returned
	failures map[string]int
}

// runBurst writes the feed's next phase from two generator goroutines,
// then waits until every update is applied or coalesced away and the
// flow-mods have landed.
func (s *system) runBurst(f *burstFeed) burstResult {
	res := burstResult{failures: make(map[string]int)}
	// Each announcer gets its share of the phase in trace proportion.
	var quota [2]int
	quota[0] = min(f.perPhase*len(f.events[0])/(len(f.events[0])+len(f.events[1])), len(f.events[0])-f.cursor[0])
	quota[1] = min(f.perPhase-quota[0], len(f.events[1])-f.cursor[1])
	start := time.Now()
	var wg sync.WaitGroup
	var sent [2]int
	var errs [2]error
	for i := range s.announcers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := s.announcers[i]
			for _, u := range f.events[i][f.cursor[i] : f.cursor[i]+quota[i]] {
				if errs[i] = a.send(u); errs[i] != nil {
					return
				}
				sent[i]++
			}
		}(i)
	}
	wg.Wait()
	f.cursor[0], f.cursor[1] = f.cursor[0]+sent[0], f.cursor[1]+sent[1]
	res.sent = sent[0] + sent[1]
	s.actionsSent.Add(int64(res.sent))
	err := s.drain()
	res.elapsed = time.Since(start)
	for _, e := range append(errs[:], err) {
		if e != nil {
			res.failures[e.Error()]++
		}
	}
	return res
}

// checkRIB is the Adj-RIB-In output check: for every (peer, prefix) a
// bench router touched, the route server holds the last action sent.
func (s *system) checkRIB() (checked, failed int) {
	rib := s.ctrl.RouteServer().RIB()
	for _, r := range []*router{s.announcers[0], s.announcers[1], s.viewer} {
		for p, attrs := range r.last {
			checked++
			got, ok := rib.Get(p, r.as)
			switch {
			case attrs == nil && ok:
				failed++
			case attrs != nil && (!ok || !slices.Equal(got.Attrs.ASPath, attrs.ASPath)):
				failed++
			}
		}
	}
	return checked, failed
}

// ---- forward phase ---------------------------------------------------------

const (
	batchSize = 64 // header-only packets, the smallest size, in InjectBatch-sized groups
	// sampleEvery picks the batches whose emit count is compared with the
	// local model's after the phase.
	sampleEvery = 16
)

// ring is a pre-filled packet stream, so that generation is not the
// bottleneck of the forwarding measurement.
type ring struct {
	pkts    []pkt.Packet
	ingress []pkt.PortID // per batch
}

func (r *ring) batches() int { return len(r.ingress) }

func (r *ring) batch(i int) (pkt.PortID, []pkt.Packet) {
	return r.ingress[i], r.pkts[i*batchSize : (i+1)*batchSize]
}

// buildRing draws a stream that lands on the match space the installed
// rules cover: 90% of destinations inside rule prefixes, headers drawn
// from a working set of the given size.
func buildRing(seed int64, entries []*dataplane.FlowEntry, workingSet int) *ring {
	n := max(65536, 2*workingSet)
	gen := trafficgen.NewPacketGen(seed, trafficgen.PoolsFromEntries(entries)).SetHitBias(0.9).SetWorkingSet(workingSet)
	r := &ring{pkts: gen.Fill(make([]pkt.Packet, n)), ingress: make([]pkt.PortID, n/batchSize)}
	for i := range r.ingress {
		r.ingress[i] = r.pkts[i*batchSize].InPort
	}
	return r
}

type forwardResult struct {
	packets   int
	elapsed   time.Duration
	genOnly   time.Duration // the same loop without the switch
	delivered int
	checked   int // packets compared with the local model
	failed    int // of those, packets whose emit count differed
}

func (r *forwardResult) add(o forwardResult) {
	r.packets += o.packets
	r.elapsed += o.elapsed
	r.genOnly += o.genOnly
	r.delivered += o.delivered
	r.checked += o.checked
	r.failed += o.failed
}

func (r forwardResult) mpps() float64 { return float64(r.packets) / r.elapsed.Seconds() / 1e6 }

// streamLoop offers ring batches to inject until stop is set, sampling
// every sampleEvery-th batch's emit count into samples.
func streamLoop(r *ring, stop *atomic.Bool, inject func(pkt.PortID, []pkt.Packet) int, samples map[int]int) (batches, delivered, conflicts int) {
	nb := r.batches()
	for i := 0; ; i++ {
		if i%64 == 0 && stop.Load() {
			return i, delivered, conflicts
		}
		b := i % nb
		port, ps := r.batch(b)
		n := inject(port, ps)
		delivered += n
		if b%sampleEvery == 0 {
			if prev, seen := samples[b]; seen && prev != n {
				conflicts++
			}
			samples[b] = n
		}
	}
}

// genSink keeps the generator-only loop from being optimized away.
var genSink int

// runForward streams the ring into the remote switch from the calling
// goroutine (generator goroutine 2) until stop is set.
func (s *system) runForward(r *ring, stop *atomic.Bool) forwardResult {
	samples := make(map[int]int)
	start := time.Now()
	batches, delivered, conflicts := streamLoop(r, stop, s.remote.InjectBatch, samples)
	res := forwardResult{packets: batches * batchSize, elapsed: time.Since(start), delivered: delivered}

	// Generator cost alone: walking the same number of ring batches, no switch.
	start = time.Now()
	for i := 0; i < batches; i++ {
		port, ps := r.batch(i % r.batches())
		genSink += int(port) + len(ps)
	}
	res.genOnly = time.Since(start)

	// Output check on the sampled batches against the authoritative model.
	res.failed = conflicts * batchSize
	scratch := make([]pkt.Packet, batchSize)
	for b, got := range samples {
		port, ps := r.batch(b)
		copy(scratch, ps)
		res.checked += batchSize
		if want := s.ctrl.Switch().InjectBatch(port, scratch); want != got {
			res.failed += max(want-got, got-want)
		}
	}
	return res
}

// ---- policy-recompile phase ------------------------------------------------

type recompileResult struct {
	ms        []float64 // Recompile call → Barrier returned
	compileMS []float64 // CompileReport.Elapsed
	rules     int
	groups    int
	failures  map[string]int
}

// runRecompile is the closed loop with one client: it alternates the
// viewer's two outbound policies, so every call is a full pass and a
// band Replace over the channel, and ends on the policy it started from.
func (s *system) runRecompile(dur time.Duration) recompileResult {
	res := recompileResult{failures: make(map[string]int)}
	deadline := time.Now().Add(dur)
	for i := 0; i%2 == 1 || i == 0 || time.Now().Before(deadline); i++ {
		start := time.Now()
		rep := s.ctrl.Recompile(core.CompilePolicy(s.viewer.as, nil, s.policies[(i+1)%2]))
		err := rep.Err
		if err == nil {
			err = s.of.Barrier()
		}
		if err != nil {
			res.failures[err.Error()]++
		}
		res.ms = append(res.ms, ms(time.Since(start)))
		res.compileMS = append(res.compileMS, ms(rep.Elapsed))
		res.rules, res.groups = rep.Rules, rep.Groups
	}
	return res
}
