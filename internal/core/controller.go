package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"sdx/internal/arp"
	"sdx/internal/bgp"
	"sdx/internal/dataplane"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/rs"
	"sdx/internal/telemetry"
)

// Flow-table priority bands, highest first. Fast-path rules from
// incremental updates sit above the fully optimized bands so that they
// take effect immediately and are garbage-collected by the next full
// recompilation (§4.3.2).
const (
	fastBandBase  = 3_000_000
	band1Base     = 2_000_000
	band2Base     = 1_000_000
	cookieFast    = 3
	cookieBand1   = 1
	cookieBand2   = 2
	maxBandHeight = 1_000_000
)

// RouteAd is one advertisement from the SDX route server to a
// participant's border router, with the next hop already rewritten to the
// virtual next hop when the prefix belongs to a forwarding equivalence
// class.
type RouteAd struct {
	Prefix   iputil.Prefix
	NextHop  iputil.Addr // meaningless when Withdraw
	Attrs    *bgp.PathAttrs
	Withdraw bool
}

// UpdateResult reports what one batch of BGP updates did to the SDX (the
// §6.3 incremental metrics).
type UpdateResult struct {
	AffectedGroups  int           // prefixes that needed fast-path rules
	AdditionalRules int           // rules pushed into the fast band (Fig 9)
	Elapsed         time.Duration // fast-path processing time (Fig 10)
}

// CompileReport summarizes a full compilation pass (Fig 8).
type CompileReport struct {
	Groups   int
	Rules    int // band1+band2 (Fig 7)
	Band1    int
	Band2    int
	Elapsed  time.Duration
	VNHCount int

	// Err is non-nil when a CompilePolicy option failed validation; the
	// pass was aborted, no policy was installed and no compilation ran.
	Err error
}

// Controller is the SDX controller: it owns the route server, the fabric
// switch, the ARP responder for virtual next hops, participant policies,
// and the compilation state. All methods are safe for concurrent use.
type Controller struct {
	mu sync.Mutex

	rs    *rs.Server
	sw    *dataplane.Switch
	arpd  *arp.Responder
	parts map[uint32]*Participant
	vnhs  *vnhTable

	cur        *Compiled
	fastPrefix map[iputil.Prefix]uint32 // fast-band VNH index per prefix
	fast       []*dataplane.FlowEntry   // live fast-band entries, in install order
	macToPort  map[pkt.MAC]pkt.PortID   // NORMAL fallback table
	sinks      map[uint32]map[int]func(RouteAd)
	nextSinkID int
	mirrors    []RuleSink
	nextVPort  int
	dirty      bool

	// peerDown holds the age-out timer armed when a participant's BGP
	// session drops; PeerUp before expiry cancels it, expiry flushes the
	// peer's routes so a flapping session cannot wedge stale state.
	// peerGen is the per-AS flush generation: PeerUp (and participant
	// removal) bump it under c.mu, and a fired age-out callback re-checks
	// it before flushing — Stop() alone cannot cancel a timer whose
	// callback is already blocked on c.mu, and without the check that
	// stale flush would run after PeerUp's flush and the fresh session's
	// re-announcements, silently dropping live routes.
	peerDown    map[uint32]*time.Timer
	peerGen     map[uint32]uint64
	routeAgeOut time.Duration

	// metrics and tracer are never nil: injected via WithTelemetry /
	// WithTracer or privately created. m caches the resolved handles.
	metrics *telemetry.Registry
	tracer  *telemetry.Tracer
	m       ctrlMetrics

	logf func(format string, args ...any)
}

// Option configures a Controller.
type Option func(*Controller)

// WithLogger directs controller logging to logf.
func WithLogger(logf func(format string, args ...any)) Option {
	return func(c *Controller) { c.logf = logf }
}

// RuleSink receives a copy of every flow-table programming operation —
// the hook that drives an external fabric switch (e.g. over the OpenFlow-
// style control channel) in lockstep with the controller's local table.
type RuleSink interface {
	AddBatch(entries []*dataplane.FlowEntry)
	Replace(cookie uint64, entries []*dataplane.FlowEntry)
	DeleteCookie(cookie uint64)
}

// WithRuleMirror registers a rule sink. Several sinks may be registered.
func WithRuleMirror(sink RuleSink) Option {
	return func(c *Controller) { c.mirrors = append(c.mirrors, sink) }
}

// WithRouteAgeOut sets how long a participant's routes survive after its
// BGP session drops before they are flushed from the RIBs (default 30s).
// The grace period lets a flapping router reconnect without the exchange
// churning withdraws through every other participant.
func WithRouteAgeOut(d time.Duration) Option {
	return func(c *Controller) { c.routeAgeOut = d }
}

// RuleBarrier is an optional RuleSink extension: sinks that apply
// operations asynchronously implement it, and Barrier returns once every
// operation sent before it has been applied. A controller with such a
// mirror retires fast-band entries make before break (see Recompile).
type RuleBarrier interface {
	Barrier() error
}

// RuleFlusher is an optional RuleSink extension: sinks that can clear
// their whole table implement it, and AddRuleMirror flushes them before
// replaying state so a resync starts from a known-empty table (stale
// rules from a previous control channel cannot linger).
type RuleFlusher interface {
	FlushAll()
}

// AddRuleMirror registers a rule sink after construction and replays the
// currently installed state into it so the external table converges: the
// optimized bands plus any live fast-band rules. A sink implementing
// RuleFlusher is flushed first, making this the reconnect-with-resync
// path for a re-established control channel.
func (c *Controller) AddRuleMirror(sink RuleSink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mirrors = append(c.mirrors, sink)
	c.resyncLocked(sink)
}

// Resync replays the full installed state into a sink without changing
// the mirror set: flush (when the sink can), optimized-band replace,
// fast-band replay. It is the reconciler's escalation path — when
// targeted repairs keep failing, a Resync rebuilds the remote table from
// scratch exactly like a control-channel reconnect would.
func (c *Controller) Resync(sink RuleSink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resyncLocked(sink)
}

// resyncLocked is the shared flush-and-replay body. Callers hold c.mu.
func (c *Controller) resyncLocked(sink RuleSink) {
	if f, ok := sink.(RuleFlusher); ok {
		f.FlushAll()
	}
	sink.Replace(cookieBand1, dataplane.EntriesFromClassifier(c.cur.Band1, band1Base, cookieBand1))
	sink.Replace(cookieBand2, dataplane.EntriesFromClassifier(c.cur.Band2, band2Base, cookieBand2))
	if len(c.fast) > 0 {
		sink.AddBatch(c.fast)
	}
}

// RemoveRuleMirror deregisters a previously added rule sink. Safe to call
// with a sink that was never registered.
func (c *Controller) RemoveRuleMirror(sink RuleSink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range c.mirrors {
		if m == sink {
			c.mirrors = append(c.mirrors[:i], c.mirrors[i+1:]...)
			return
		}
	}
}

// NewController returns an SDX controller with an empty fabric.
func NewController(opts ...Option) *Controller {
	c := &Controller{
		sw:          dataplane.NewSwitch("sdx-fabric"),
		arpd:        arp.NewResponder(),
		parts:       make(map[uint32]*Participant),
		vnhs:        newVNHTable(),
		fastPrefix:  make(map[iputil.Prefix]uint32),
		macToPort:   make(map[pkt.MAC]pkt.PortID),
		sinks:       make(map[uint32]map[int]func(RouteAd)),
		peerDown:    make(map[uint32]*time.Timer),
		peerGen:     make(map[uint32]uint64),
		routeAgeOut: 30 * time.Second,
		cur:         &Compiled{GroupIdx: map[iputil.Prefix]int{}},
		logf:        func(string, ...any) {},
	}
	for _, o := range opts {
		o(c)
	}
	if c.metrics == nil {
		c.metrics = telemetry.NewRegistry()
	}
	if c.tracer == nil {
		c.tracer = telemetry.NewTracer(1024)
	}
	// The route server is created after the options run so it publishes
	// into whichever registry was injected.
	c.rs = rs.New(rs.WithMetrics(c.metrics))
	c.initTelemetry()
	c.sw.PacketIn = c.normalForward
	return c
}

// Switch exposes the fabric switch (for attaching border routers and
// injecting traffic).
func (c *Controller) Switch() *dataplane.Switch { return c.sw }

// ARP exposes the VNH ARP responder.
func (c *Controller) ARP() *arp.Responder { return c.arpd }

// RouteServer exposes the underlying route server (read-side queries).
func (c *Controller) RouteServer() *rs.Server { return c.rs }

// AddParticipant registers a participant AS with the exchange, creating
// its virtual switch and fabric ports.
func (c *Controller) AddParticipant(cfg ParticipantConfig) (*Participant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cfg.AS == 0 {
		return nil, fmt.Errorf("core: participant AS must be non-zero")
	}
	if _, dup := c.parts[cfg.AS]; dup {
		return nil, fmt.Errorf("core: duplicate participant AS%d", cfg.AS)
	}
	for _, pp := range cfg.Ports {
		if err := checkPhysicalPort(pp.ID); err != nil {
			return nil, err
		}
		if _, dup := c.macToPort[pp.MAC()]; dup {
			return nil, fmt.Errorf("core: port %d already in use", pp.ID)
		}
	}
	p := &Participant{cfg: cfg, vport: vportOf(c.nextVPort)}
	c.nextVPort++
	if err := c.rs.AddParticipant(rs.ParticipantConfig{
		AS:       cfg.AS,
		RouterID: p.routerID(),
		Export:   cfg.Export,
	}); err != nil {
		return nil, err
	}
	for _, pp := range cfg.Ports {
		if err := c.sw.AddPort(pp.ID, fmt.Sprintf("%s-%d", cfg.Name, pp.ID), nil); err != nil {
			return nil, err
		}
		c.macToPort[pp.MAC()] = pp.ID
		c.arpd.Register(pp.IP(), pp.MAC())
	}
	c.parts[cfg.AS] = p
	c.dirty = true
	return p, nil
}

// Participant returns a registered participant.
func (c *Controller) Participant(as uint32) (*Participant, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.parts[as]
	return p, ok
}

// OnRoute registers an advertisement sink for a participant's border
// router; a participant with several routers registers one sink each. The
// sink is called with the SDX's (VNH-rewritten) route advertisements; it
// must not call back into the controller. The returned function
// unregisters the sink — a reconnecting session registers a fresh sink,
// so teardown must drop the old one or dead sinks pile up across flaps.
func (c *Controller) OnRoute(as uint32, sink func(RouteAd)) (func(), error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.parts[as]; !ok {
		return nil, fmt.Errorf("core: unknown participant AS%d", as)
	}
	if c.sinks[as] == nil {
		c.sinks[as] = make(map[int]func(RouteAd))
	}
	id := c.nextSinkID
	c.nextSinkID++
	c.sinks[as][id] = sink
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if m := c.sinks[as]; m != nil {
			delete(m, id)
		}
	}, nil
}

// PeerUp records that a participant's BGP session (re-)established: any
// pending route age-out is cancelled and the peer's stale Adj-RIB-In is
// flushed — a fresh session exchanges full tables (RFC 4271 §8), so
// whatever the previous incarnation left behind (including updates
// mangled by a corrupted transport) is replaced by the peer's
// re-announcements, not merged with them.
func (c *Controller) PeerUp(as uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.peerDown[as]; ok {
		// Stop()==false means the timer already fired and its callback is
		// queued on c.mu; the generation bump below is what actually
		// disarms it.
		t.Stop()
		delete(c.peerDown, as)
	}
	c.peerGen[as]++
	c.flushPeerRoutesLocked(as)
}

// PeerDown records that a participant's BGP session dropped. The peer's
// routes are not withdrawn immediately: an age-out timer starts, and only
// if the session stays down past WithRouteAgeOut are the routes flushed
// (graceful degradation — a flap costs nothing, a real outage converges).
func (c *Controller) PeerDown(as uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.parts[as]; !ok {
		return
	}
	if t, ok := c.peerDown[as]; ok {
		t.Stop()
	}
	gen := c.peerGen[as]
	c.peerDown[as] = time.AfterFunc(c.routeAgeOut, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.peerGen[as] != gen {
			// Superseded while we were firing: the session came back (or
			// the participant left) and already flushed; running now would
			// drop the routes the fresh session re-announced.
			return
		}
		delete(c.peerDown, as)
		c.logf("core: AS%d session down past age-out, flushing routes", as)
		c.flushPeerRoutesLocked(as)
	})
}

// flushPeerRoutesLocked drops every route learned from the peer and runs
// the fast path over the resulting best-route changes, re-advertising
// affected prefixes. The participant stays registered. Caller holds c.mu
// (the established lock order is c.mu before rs.mu, as in ApplyBatch),
// which makes the flush atomic with the generation check above.
func (c *Controller) flushPeerRoutesLocked(as uint32) {
	if changed := c.rs.FlushPeer(as); len(changed) > 0 {
		c.handleChangesLocked(changed)
	}
}

// SetPolicy installs a participant's inbound and outbound policy terms,
// replacing any previous policy. The change takes effect at the next
// Recompile (Recompile(CompilePolicy(...)) combines both).
func (c *Controller) SetPolicy(as uint32, inbound, outbound []Term) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.validatePolicyLocked(as, inbound, outbound)
	if err != nil {
		return err
	}
	c.installPolicyLocked(p, inbound, outbound)
	return nil
}

// validatePolicyLocked checks a policy for participant as without
// installing it, returning the participant it would apply to.
func (c *Controller) validatePolicyLocked(as uint32, inbound, outbound []Term) (*Participant, error) {
	p, ok := c.parts[as]
	if !ok {
		return nil, fmt.Errorf("core: unknown participant AS%d", as)
	}
	for _, t := range inbound {
		if err := p.validateTerm(t, true); err != nil {
			return nil, err
		}
		if _, set := t.Match.GetInPort(); set {
			return nil, fmt.Errorf("core: policy matches must not constrain inport")
		}
	}
	for _, t := range outbound {
		if err := p.validateTerm(t, false); err != nil {
			return nil, err
		}
		if _, set := t.Match.GetInPort(); set {
			return nil, fmt.Errorf("core: policy matches must not constrain inport")
		}
		if t.Action.ToParticipant != 0 {
			if _, ok := c.parts[t.Action.ToParticipant]; !ok {
				return nil, fmt.Errorf("core: outbound term targets unknown AS%d", t.Action.ToParticipant)
			}
		}
	}
	return p, nil
}

// installPolicyLocked replaces p's policy with a validated one.
func (c *Controller) installPolicyLocked(p *Participant, inbound, outbound []Term) {
	p.inbound = append([]Term(nil), inbound...)
	p.outbound = append([]Term(nil), outbound...)
	c.dirty = true
}

// ApplyBatch is the one way BGP updates enter the controller: a batch of
// UPDATEs, possibly from many participants, as drained from the ingestion
// queue. Every update's RIB mutations are applied (sharded, in parallel)
// and the fast incremental compilation path (§4.3.2) runs once over the
// prefixes whose best routes changed — those that interact with any
// policy get a fresh per-prefix VNH and higher-priority rules
// immediately; the full (optimal) recompilation is left to the next
// Recompile call, which the background optimizer invokes between bursts.
// Within the batch, updates for the same (prefix, peer) pair apply in
// order, so the batch is equivalent to applying its updates one at a
// time — only cheaper: one decision pass, one dirty set, one
// re-advertisement sweep.
func (c *Controller) ApplyBatch(batch ...rs.PeerUpdate) UpdateResult {
	if len(batch) == 0 {
		return UpdateResult{}
	}
	t := telemetry.StartTimer(c.m.updateNS)
	c.m.updatesIn.Add(int64(len(batch)))
	for _, pu := range batch {
		c.tracer.Emit(telemetry.EventBGPUpdateReceived, pu.From, "",
			int64(len(pu.Update.NLRI)+len(pu.Update.Withdrawn)))
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	res := c.handleChangesLocked(c.rs.Apply(batch))
	res.Elapsed = t.Stop()
	return res
}

// handleChangesLocked runs the fast incremental path over the prefixes
// whose best routes changed (sorted, as the route server returns them)
// and re-advertises them.
func (c *Controller) handleChangesLocked(changed []iputil.Prefix) UpdateResult {
	var res UpdateResult
	comp := &compiler{parts: c.parts, view: c.rs, vnhs: c.vnhs}
	for _, prefix := range changed {
		g, _ := comp.fastGroup(prefix)
		_, wasGrouped := c.cur.GroupIdx[prefix]
		_, wasFast := c.fastPrefix[prefix]
		if len(g.Sets) == 0 && !wasGrouped && !wasFast {
			// The prefix interacts with no policy: plain route-server
			// behaviour, no fabric rules needed.
			continue
		}

		fc := comp.CompileFast(prefix)
		idx := uint32(fc.VNHs[0] - VNHSubnet.Addr())
		c.fastPrefix[prefix] = idx
		c.arpd.Register(fc.VNHs[0], fc.VMACs[0])
		c.m.fastCompiles.Inc()
		c.tracer.Emit(telemetry.EventFECChanged, 0, prefix.String(), int64(idx))

		entries := dataplane.EntriesFromClassifier(fc.Band1, fastBandBase+2048, cookieFast)
		entries = append(entries, dataplane.EntriesFromClassifier(fc.Band2, fastBandBase, cookieFast)...)
		c.sw.Table().AddBatch(entries)
		for _, m := range c.mirrors {
			m.AddBatch(entries)
		}
		c.fast = append(c.fast, entries...)
		c.m.rulesInstalled.Add(int64(len(entries)))
		c.tracer.Emit(telemetry.EventRuleInstalled, 0, "fast", int64(len(entries)))
		res.AffectedGroups++
		res.AdditionalRules += len(entries)
	}
	if len(changed) > 0 {
		c.m.dirtySet.Observe(int64(len(changed)))
		c.dirty = true
	}

	// Re-advertise affected prefixes to every participant, in sorted
	// order so advertisement traces and mirror streams are deterministic
	// across runs.
	for _, p := range changed {
		c.advertisePrefixLocked(p)
	}
	return res
}

// RemoveParticipant withdraws every route the participant announced,
// removes its policies, ports and virtual switch, and runs the fast path
// over the resulting best-route changes. Any policy of another
// participant that targeted it stops matching at the next Recompile.
func (c *Controller) RemoveParticipant(as uint32) (UpdateResult, error) {
	// Deliberately unrecorded: update_ns tracks only ApplyBatch, so its
	// sample count stays comparable with the updates_in counter.
	t := telemetry.StartTimer(nil)
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.parts[as]
	if !ok {
		return UpdateResult{}, fmt.Errorf("core: unknown participant AS%d", as)
	}
	// Deregister before recomputation so fastGroup stops seeing its
	// policies and synthetic sets.
	delete(c.parts, as)
	delete(c.sinks, as)
	if t, ok := c.peerDown[as]; ok {
		t.Stop()
		delete(c.peerDown, as)
	}
	c.peerGen[as]++ // disarm any already-fired age-out callback
	for _, pp := range p.cfg.Ports {
		c.sw.RemovePort(pp.ID)
		delete(c.macToPort, pp.MAC())
		c.arpd.Unregister(pp.IP())
	}
	res := c.handleChangesLocked(c.rs.RemoveParticipant(as))
	c.dirty = true
	res.Elapsed = t.Stop()
	return res, nil
}

// EnableCommunities turns on conventional route-server community handling
// ((0, peer) = don't announce to peer, (0, rsAS) = announce to nobody,
// (rsAS, peer) = announce only to peer) with the given route-server AS.
func (c *Controller) EnableCommunities(localAS uint32) {
	c.rs.EnableCommunities(localAS)
	c.mu.Lock()
	c.dirty = true
	c.mu.Unlock()
}

// StartOptimizer launches the §4.3.2 background optimization loop: every
// interval, if routes or policies changed since the last full pass, the
// controller recompiles (folding fast-band rules into the minimal
// tables). The returned stop function halts the loop and waits for it.
func (c *Controller) StartOptimizer(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if c.Dirty() {
					rep := c.Recompile()
					c.logf("core: background optimization: %d groups, %d rules in %v",
						rep.Groups, rep.Rules, rep.Elapsed)
				}
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}

// compileMode is the Detail of a full pass's EventCompileStarted and
// EventCompileDone.
const compileMode = "full"

// fastRetireGrace is how long a pass keeps the fast entries it retired
// installed after re-advertising their prefixes: a border router goes on
// tagging packets with a prefix's fast VMAC until it has processed the
// re-advertisement. mirrorConfirmWait bounds the wait for mirrors to
// confirm that the retired entries are gone.
const (
	fastRetireGrace   = 50 * time.Millisecond
	mirrorConfirmWait = time.Second
)

// Recompile runs the full optimization pass: FEC grouping, policy
// compilation, atomic band swap, fast-band garbage collection, and
// re-advertisement of exactly the prefixes whose advertised next hop moved
// (movedNextHops) — a pass that changes no next hop advertises nothing.
// CompilePolicy options fold in policy changes first, under the same lock
// hold as the pass.
//
// When a mirror can confirm what it applied (RuleBarrier) — a remote
// fabric switch — the pass removes the retired fast band make before
// break (retireFastBand) and returns once it is gone. Otherwise it
// deletes the band with the swap.
func (c *Controller) Recompile(options ...CompileOption) CompileReport {
	var cfg compileConfig
	for _, o := range options {
		o(&cfg)
	}
	t := telemetry.StartTimer(c.m.compileNS)
	c.mu.Lock()
	rep, retiring := c.recompileLocked(cfg, t)
	c.mu.Unlock()
	if retiring {
		c.retireFastBand()
	}
	return rep
}

// retireFastBand removes the fast entries the last pass retired. They
// stay installed, locally and in every mirror, for fastRetireGrace after
// the pass re-advertised their prefixes, so routers that still tag with a
// fast VMAC keep forwarding. Then every mirror's fast band is set to the
// live entries, and only once the confirming mirrors have applied that
// does the local table follow: it never lacks a rule a mirror still
// forwards on. The waits run without the controller lock, so updates
// install their fast rules meanwhile; setting bands to exactly the live
// entries keeps local and mirrors equal however passes overlap.
func (c *Controller) retireFastBand() {
	time.Sleep(fastRetireGrace)
	c.mu.Lock()
	var confirm []RuleBarrier
	for _, m := range c.mirrors {
		m.Replace(cookieFast, c.fast)
		if b, ok := m.(RuleBarrier); ok {
			confirm = append(confirm, b)
		}
	}
	c.mu.Unlock()
	c.awaitMirrors(confirm)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sw.Table().Replace(cookieFast, c.fast)
	c.sw.Table().Precompile()
}

// awaitMirrors returns once every sink has confirmed the operations sent
// to it so far, or after mirrorConfirmWait.
func (c *Controller) awaitMirrors(sinks []RuleBarrier) {
	done := make(chan error, len(sinks))
	for _, s := range sinks {
		go func() { done <- s.Barrier() }()
	}
	timeout := time.NewTimer(mirrorConfirmWait)
	defer timeout.Stop()
	for range sinks {
		select {
		case err := <-done:
			if err != nil {
				c.logf("core: mirror did not confirm the fast-band retirement: %v", err)
			}
		case <-timeout.C:
			c.logf("core: mirror did not confirm the fast-band retirement within %v", mirrorConfirmWait)
			return
		}
	}
}

// recompileLocked is the pass under c.mu: it folds in the CompilePolicy
// changes, compiles, and hands the result to installLocked.
func (c *Controller) recompileLocked(cfg compileConfig, t telemetry.Timer) (CompileReport, bool) {
	for _, pc := range cfg.policies {
		if _, err := c.validatePolicyLocked(pc.as, pc.inbound, pc.outbound); err != nil {
			return CompileReport{Err: err}, false
		}
	}
	for _, pc := range cfg.policies {
		c.installPolicyLocked(c.parts[pc.as], pc.inbound, pc.outbound)
	}

	c.m.fullCompiles.Inc()
	c.tracer.Emit(telemetry.EventCompileStarted, 0, compileMode, 0)

	comp := &compiler{parts: c.parts, view: c.rs, vnhs: c.vnhs}
	return c.installLocked(comp.Compile(), t)
}

// installLocked installs a full pass's output under c.mu: both bands
// swapped in locally and in every mirror, the fast band retired, VNH ARP
// bindings registered, and the prefixes whose next hop moved advertised
// again. It reports whether it left the retired fast band installed for
// retireFastBand to remove.
func (c *Controller) installLocked(compiled *Compiled, t telemetry.Timer) (CompileReport, bool) {
	band1 := dataplane.EntriesFromClassifier(compiled.Band1, band1Base, cookieBand1)
	band2 := dataplane.EntriesFromClassifier(compiled.Band2, band2Base, cookieBand2)
	c.sw.Table().Replace(cookieBand1, band1)
	c.sw.Table().Replace(cookieBand2, band2)
	retiring := len(c.fast) > 0 && slices.ContainsFunc(c.mirrors, func(m RuleSink) bool {
		_, ok := m.(RuleBarrier)
		return ok
	})
	if !retiring {
		c.sw.Table().DeleteCookie(cookieFast)
	}
	for _, m := range c.mirrors {
		m.Replace(cookieBand1, band1)
		m.Replace(cookieBand2, band2)
		if !retiring {
			m.DeleteCookie(cookieFast)
		}
	}
	c.fast = nil
	prevFast := c.fastPrefix
	c.fastPrefix = make(map[iputil.Prefix]uint32)

	// Eagerly rebuild the dataplane's compiled dispatch engine for the new
	// bands, so the first post-install packet pays dispatch cost, not an
	// engine build.
	c.sw.Table().Precompile()

	for gi := range compiled.VNHs {
		c.arpd.Register(compiled.VNHs[gi], compiled.VMACs[gi])
	}
	prev := c.cur
	c.cur = compiled
	c.dirty = false

	for _, p := range movedNextHops(prev, compiled, prevFast) {
		c.advertisePrefixLocked(p)
	}

	rep := CompileReport{
		Groups:   len(compiled.Groups),
		Rules:    compiled.NumRules(),
		Band1:    len(compiled.Band1),
		Band2:    len(compiled.Band2),
		Elapsed:  t.Stop(),
		VNHCount: c.vnhs.alloc.Allocated(),
	}
	c.m.rulesInstalled.Add(int64(rep.Rules))
	c.m.groups.Set(int64(rep.Groups))
	c.m.band1.Set(int64(rep.Band1))
	c.m.band2.Set(int64(rep.Band2))
	c.m.vnhsAllocated.Set(int64(rep.VNHCount))
	c.tracer.Emit(telemetry.EventRuleInstalled, 0, "band1", int64(rep.Band1))
	c.tracer.Emit(telemetry.EventRuleInstalled, 0, "band2", int64(rep.Band2))
	c.tracer.Emit(telemetry.EventCompileDone, 0, compileMode, int64(rep.Rules))
	return rep, retiring
}

// movedNextHops returns, sorted, the prefixes a full pass must advertise
// again: those whose advertised next hop is not what it was before the
// pass — they held a fast-path VNH (now collected), their group's VNH
// changed, or they entered or left grouping. Best-route changes are not
// its business; the fast path advertised those when they happened.
func movedNextHops(prev, cur *Compiled, prevFast map[iputil.Prefix]uint32) []iputil.Prefix {
	var moved []iputil.Prefix
	for p := range prevFast {
		moved = append(moved, p)
	}
	for p, gi := range cur.GroupIdx {
		if _, fast := prevFast[p]; fast {
			continue
		}
		if pgi, ok := prev.GroupIdx[p]; !ok || prev.VNHs[pgi] != cur.VNHs[gi] {
			moved = append(moved, p)
		}
	}
	for p := range prev.GroupIdx {
		_, fast := prevFast[p]
		if _, ok := cur.GroupIdx[p]; !ok && !fast {
			moved = append(moved, p)
		}
	}
	slices.SortFunc(moved, iputil.Prefix.Compare)
	return moved
}

// Dirty reports whether policies or routes changed since the last full
// recompilation (the background optimizer's trigger).
func (c *Controller) Dirty() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dirty
}

// Compiled returns the last full compilation result.
func (c *Controller) Compiled() *Compiled {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// FastRules returns the number of fast-band rules currently installed
// (reset by Recompile).
func (c *Controller) FastRules() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.fast)
}

// RoutesFor returns the participant's current route advertisements with
// next hops rewritten to virtual next hops where applicable — the initial
// table transfer for a newly connected border router.
func (c *Controller) RoutesFor(as uint32) []RouteAd {
	c.mu.Lock()
	defer c.mu.Unlock()
	best := c.rs.BestRoutes(as)
	out := make([]RouteAd, 0, len(best))
	for prefix, r := range best {
		nh := c.vnhForPrefix(prefix, r.Attrs.NextHop)
		attrs := r.Attrs.Clone()
		attrs.NextHop = nh
		out = append(out, RouteAd{Prefix: prefix, NextHop: nh, Attrs: attrs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Compare(out[j].Prefix) < 0 })
	return out
}

// vnhForPrefix returns the next hop to advertise for a prefix: the fast
// VNH if one is pending, the group VNH if the prefix is grouped, or the
// route's real next hop otherwise.
func (c *Controller) vnhForPrefix(prefix iputil.Prefix, real iputil.Addr) iputil.Addr {
	if idx, ok := c.fastPrefix[prefix]; ok {
		return VNHAddr(idx)
	}
	if gi, ok := c.cur.GroupIdx[prefix]; ok {
		return c.cur.VNHs[gi]
	}
	return real
}

// advertisePrefixLocked sends the current route for prefix (with the next
// hop rewritten) to every participant's border router. Callers decide
// what is worth sending: the fast path calls it for prefixes whose best
// route changed, the full pass for those in movedNextHops.
func (c *Controller) advertisePrefixLocked(prefix iputil.Prefix) {
	for as, sinks := range c.sinks {
		best, ok := c.rs.BestRoute(as, prefix)
		if !ok || best == nil {
			for _, sink := range sinks {
				sink(RouteAd{Prefix: prefix, Withdraw: true})
			}
			continue
		}
		nh := c.vnhForPrefix(prefix, best.Attrs.NextHop)
		attrs := best.Attrs.Clone()
		attrs.NextHop = nh
		for _, sink := range sinks {
			sink(RouteAd{Prefix: prefix, NextHop: nh, Attrs: attrs})
		}
	}
}

// NormalEgress returns the classic layer-2 egress port for a packet (by
// real destination MAC), the fallback for traffic no installed rule
// covers — including table-miss PACKET_INs arriving from an external
// fabric switch.
func (c *Controller) NormalEgress(p pkt.Packet) (pkt.PortID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	port, ok := c.macToPort[p.DstMAC]
	return port, ok
}

// HandleARP processes an in-fabric ARP request (EtherType 0x0806 with the
// ARP packet in the payload): requests for registered addresses — real
// port IPs and virtual next hops — produce the reply frame to emit on the
// requesting port, the mechanism that makes unmodified border routers tag
// packets with VMACs (§5.1 "the controller also implements an ARP
// responder"). The boolean is false when the frame is not an answerable
// request.
func (c *Controller) HandleARP(p pkt.Packet) (pkt.Packet, bool) {
	if p.EthType != pkt.EthTypeARP {
		return pkt.Packet{}, false
	}
	req, err := arp.Unmarshal(p.Payload)
	if err != nil {
		return pkt.Packet{}, false
	}
	rep := c.arpd.Respond(req)
	if rep == nil {
		return pkt.Packet{}, false
	}
	c.m.arpReplies.Inc()
	c.tracer.Emit(telemetry.EventARPReply, 0, req.TargetIP.String(), 0)
	return pkt.Packet{
		SrcMAC:  rep.SenderMAC,
		DstMAC:  rep.TargetMAC,
		EthType: pkt.EthTypeARP,
		Payload: rep.Marshal(),
	}, true
}

// normalForward is the local fabric's fallback for traffic matching no
// installed rule: ARP requests are answered by the controller's
// responder, and everything else gets classic layer-2 delivery by real
// destination MAC — the behaviour of a conventional IXP fabric (§3.2
// "participants who do not want to implement SDX policies see the same
// layer-2 abstractions").
func (c *Controller) normalForward(p pkt.Packet) {
	if reply, ok := c.HandleARP(p); ok {
		c.sw.Output(p.InPort, reply)
		return
	}
	port, ok := c.NormalEgress(p)
	if !ok {
		return // unknown destination: drop, like an unlearned unicast
	}
	c.sw.Output(port, p)
}

// InjectFromPort offers a packet to the fabric as if the participant's
// border router emitted it on the given physical port.
func (c *Controller) InjectFromPort(port pkt.PortID, p pkt.Packet) int {
	return c.sw.Inject(port, p)
}
