// Package chaostest assembles a complete SDX deployment — controller,
// BGP route-server endpoint, participant border-router simulators and a
// remote OpenFlow fabric — entirely over an internal/simnet Network, and
// provides the convergence and golden-run comparison helpers the chaos
// soak tests assert with.
//
// The same Deployment runs twice per seed: once over a fault-free
// network (the golden run) and once under a simnet.GenScript fault
// schedule. After the script completes and tainted transports are
// bounced, the faulted run must converge to exactly the golden run's
// state: identical Loc-RIBs at every border router and an identical
// installed rule table on the remote fabric. VNH/VMAC allocation order
// differs between runs (fault-driven churn allocates extra pairs), so
// cross-run comparisons go through Normalize, which rewrites those
// assignments into first-occurrence tokens.
package chaostest

import (
	"context"
	"fmt"
	"net"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"sdx"
	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/iputil"
	"sdx/internal/openflow"
	"sdx/internal/pkt"
	"sdx/internal/reconcile"
	"sdx/internal/simnet"
	"sdx/internal/verify"
)

// Announcement is one prefix a border router originates.
type Announcement struct {
	Prefix iputil.Prefix
	Path   []uint32
}

// PeerSpec describes one participant: its AS, fabric port(s), policies
// and the prefixes its border router announces on every session
// (re-)establishment.
type PeerSpec struct {
	AS       uint32
	Port     pkt.PortID
	Outbound []sdx.Term
	Anns     []Announcement

	// ExtraPorts lists additional fabric ports beyond Port for
	// multi-homed participants — the §2 inbound-TE workload needs a
	// dual-homed eyeball network.
	ExtraPorts []pkt.PortID
	// Inbound is the participant's inbound policy (FwdPort terms).
	Inbound []sdx.Term
}

// Tag returns the simnet connection tag the peer's dialer uses; scripted
// faults target sessions through it across reconnects.
func (s PeerSpec) Tag() string { return fmt.Sprintf("peer%d", s.AS) }

// ports returns every fabric port the participant owns, primary first.
func (s PeerSpec) ports() []pkt.PortID {
	return append([]pkt.PortID{s.Port}, s.ExtraPorts...)
}

// OFTag is the simnet tag of the OpenFlow control channel.
const OFTag = "ofctl"

// Targets maps a deployment's transports to simnet fault targets, with
// the listener peers filled in so simnet.GenScript can schedule
// asymmetric (one-direction) partitions that leave BGP and OpenFlow
// sessions half-open.
func Targets(specs []PeerSpec) []simnet.Target {
	ts := make([]simnet.Target, 0, len(specs)+1)
	for _, s := range specs {
		ts = append(ts, simnet.Target{Tag: s.Tag(), Peer: "rs"})
	}
	return append(ts, simnet.Target{Tag: OFTag, Peer: "switch"})
}

// Peer is a simulated border router: a redialing BGP session plus the
// Loc-RIB it builds from the route server's advertisements. A fresh
// session is a full table exchange, so the RIB is cleared on every
// re-establishment before the initial transfer arrives.
type Peer struct {
	Spec   PeerSpec
	dialer *bgp.Dialer

	mu  sync.Mutex
	rib map[iputil.Prefix]ribEntry
}

type ribEntry struct {
	nh   iputil.Addr
	path string
}

// Session returns the peer's most recent BGP session (nil before the
// first handshake).
func (p *Peer) Session() *bgp.Session { return p.dialer.Session() }

// Established reports whether the peer currently has an Established
// session.
func (p *Peer) Established() bool {
	s := p.dialer.Session()
	return s != nil && s.State() == bgp.StateEstablished
}

// RIBDump renders the peer's Loc-RIB sorted, one route per line, in the
// same format as Deployment.ServerView.
func (p *Peer) RIBDump() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	lines := make([]string, 0, len(p.rib))
	for pre, e := range p.rib {
		lines = append(lines, fmt.Sprintf("%s via %s path %s", pre, e.nh, e.path))
	}
	sort.Strings(lines)
	return lines
}

func (p *Peer) onUp(s *bgp.Session) {
	p.mu.Lock()
	p.rib = make(map[iputil.Prefix]ribEntry)
	p.mu.Unlock()
	for _, a := range p.Spec.Anns {
		// A send failing here means the session died mid-announcement;
		// the dialer observes the teardown and the next session replays.
		_ = s.SendUpdate(&bgp.Update{
			Attrs: &bgp.PathAttrs{ASPath: a.Path, NextHop: sdx.PortIP(p.Spec.Port)},
			NLRI:  []iputil.Prefix{a.Prefix},
		})
	}
}

func (p *Peer) onUpdate(_ *bgp.Session, u *bgp.Update) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range u.Withdrawn {
		delete(p.rib, w)
	}
	if u.Attrs == nil {
		return
	}
	for _, pre := range u.NLRI {
		p.rib[pre] = ribEntry{nh: u.Attrs.NextHop, path: fmt.Sprint(u.Attrs.ASPath)}
	}
}

// Deployment is one full SDX stack wired over a simnet Network.
type Deployment struct {
	Net    *simnet.Network
	Ctrl   *sdx.Controller
	Srv    *sdx.BGPServer
	Remote *dataplane.Switch
	Peers  map[uint32]*Peer

	// Rec is the deployment's reconciler over the remote table. Always
	// constructed; its continuous loop runs only when
	// Options.ReconcileInterval is set. Drive it manually with
	// ReconcileOnce.
	Rec *reconcile.Reconciler

	red    *openflow.Redialer
	swLn   *simnet.Listener
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu   sync.Mutex
	gen  uint64        // control-channel/table generation (see genSink)
	sink core.RuleSink // registered mirror for the live channel, nil while down
}

// Options tunes a deployment. The zero value picks chaos-friendly
// defaults: 1s hold time (the wire floor, so sub-2s stalls and
// partitions expire it), fast reconnect backoff and sub-second route
// age-out.
type Options struct {
	HoldTime   time.Duration // BGP hold time proposed by the peers
	MinBackoff time.Duration // dialer retry floor
	MaxBackoff time.Duration // dialer retry ceiling
	AgeOut     time.Duration // controller route age-out after PeerDown

	// ReconcileInterval, when non-zero, starts the continuous reconciler
	// loop at that period. The reconciler itself is always constructed,
	// so tests can drive deterministic passes with ReconcileOnce.
	ReconcileInterval time.Duration
	// ProbeInterval, when non-zero, starts the fabric deployment's
	// continuous dataplane liveness probe loop at that period (the
	// single-switch deployment has no trunk band for probes to ride).
	ProbeInterval time.Duration
	// Logf, when non-nil, narrates reconciler repairs and probe health
	// transitions.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.HoldTime == 0 {
		o.HoldTime = time.Second
	}
	if o.MinBackoff == 0 {
		o.MinBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = 400 * time.Millisecond
	}
	if o.AgeOut == 0 {
		o.AgeOut = 700 * time.Millisecond
	}
}

// Start brings up the whole stack on n: route server listening at "rs",
// switch agent at "switch", one redialing BGP peer per spec and a
// redialing OpenFlow control channel (tag OFTag) mirroring the
// controller's rules to the remote fabric. Seed makes every dialer's
// retry jitter reproducible.
func Start(n *simnet.Network, seed int64, specs []PeerSpec, opts Options) (*Deployment, error) {
	opts.fill()
	ctrl, err := buildController(specs, opts)
	if err != nil {
		return nil, err
	}

	rsLn, err := n.Listen("rs")
	if err != nil {
		return nil, err
	}
	swLn, err := n.Listen("switch")
	if err != nil {
		return nil, err
	}

	remote := dataplane.NewSwitch("chaos-remote")
	for i, spec := range specs {
		for _, port := range spec.ports() {
			if err := remote.AddPort(port, fmt.Sprintf("%c%d", 'A'+i, port), nil); err != nil {
				return nil, err
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	d := &Deployment{
		Net:    n,
		Ctrl:   ctrl,
		Srv:    sdx.ServeBGP(ctrl, rsLn, 64512),
		Remote: remote,
		Peers:  make(map[uint32]*Peer),
		swLn:   swLn,
		cancel: cancel,
	}

	agent := openflow.NewAgent(remote)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = agent.ListenAndServe(swLn)
	}()

	d.red = &openflow.Redialer{
		Dial: func(context.Context) (*openflow.Client, error) {
			conn, err := n.Dial("switch", OFTag)
			if err != nil {
				return nil, err
			}
			// Bound the hello exchange: a partition landing mid-handshake
			// must fail the attempt into the backoff loop, not wedge it.
			_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
			c, err := openflow.NewClient(conn)
			if err != nil {
				return nil, err
			}
			_ = conn.SetDeadline(time.Time{})
			return c, nil
		},
		OnUp: func(c *openflow.Client) {
			sink := &genSink{bump: d.bumpGen, inner: openflow.Mirror{C: c}}
			d.mu.Lock()
			d.gen++
			d.sink = sink
			d.mu.Unlock()
			ctrl.AddRuleMirror(sink)
		},
		OnDown: func(c *openflow.Client, _ error) {
			d.mu.Lock()
			d.gen++
			sink := d.sink
			d.sink = nil
			d.mu.Unlock()
			if sink != nil {
				ctrl.RemoveRuleMirror(sink)
			}
		},
		MinBackoff: opts.MinBackoff,
		MaxBackoff: opts.MaxBackoff,
		Seed:       seed + 1,
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = d.red.Run(ctx)
	}()

	d.Rec = reconcile.New(reconcile.Config{
		Interval: opts.ReconcileInterval,
		Registry: ctrl.Metrics(),
		Logf:     opts.Logf,
	}, reconcile.Target{
		Name:     "remote",
		Intended: func() []*dataplane.FlowEntry { return ctrl.Switch().Table().Entries() },
		Installed: func() ([]*dataplane.FlowEntry, bool) {
			if d.red.Client() == nil {
				return nil, false
			}
			return remote.Table().Entries(), true
		},
		Sink: func() reconcile.Sink {
			c := d.red.Client()
			if c == nil {
				return nil
			}
			return openflow.Mirror{C: c}
		},
		Generation: d.genOf,
		Escalate:   d.escalate,
	})
	if opts.ReconcileInterval > 0 {
		d.Rec.Start()
	}

	for _, spec := range specs {
		p := newPeer(n, ctrl, spec, opts, seed)
		d.Peers[spec.AS] = p
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			_ = p.dialer.Run(ctx)
		}()
	}
	return d, nil
}

// genSink wraps a registered control-channel sink and bumps a generation
// counter on every controller write. The reconciler samples the
// generation before diffing and re-checks it before repairing, so a
// resync or recompile landing in between fences the (now stale) repair
// instead of letting it trample the fresh table.
type genSink struct {
	bump  func()
	inner core.RuleSink
}

func (g *genSink) AddBatch(es []*dataplane.FlowEntry) { g.bump(); g.inner.AddBatch(es) }
func (g *genSink) Replace(cookie uint64, es []*dataplane.FlowEntry) {
	g.bump()
	g.inner.Replace(cookie, es)
}
func (g *genSink) DeleteCookie(cookie uint64) { g.bump(); g.inner.DeleteCookie(cookie) }
func (g *genSink) FlushAll() {
	g.bump()
	if f, ok := g.inner.(core.RuleFlusher); ok {
		f.FlushAll()
	}
}

func (d *Deployment) bumpGen() {
	d.mu.Lock()
	d.gen++
	d.mu.Unlock()
}

func (d *Deployment) genOf() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gen
}

// escalate is the reconciler's flush-and-replay path: a full controller
// resync through the registered (generation-bumping) sink, exactly what
// a control-channel reconnect performs.
func (d *Deployment) escalate() {
	d.mu.Lock()
	sink := d.sink
	d.mu.Unlock()
	if sink != nil {
		d.Ctrl.Resync(sink)
	}
}

// ReconcileOnce drives one deterministic reconciler pass.
func (d *Deployment) ReconcileOnce() reconcile.Summary { return d.Rec.RunOnce() }

// buildController assembles a controller with the specs' participants and
// policies installed and an initial compile done.
func buildController(specs []PeerSpec, opts Options) (*sdx.Controller, error) {
	ctrl := sdx.New(sdx.WithRouteAgeOut(opts.AgeOut))
	for i, spec := range specs {
		ports := make([]sdx.PhysicalPort, 0, 1+len(spec.ExtraPorts))
		for _, port := range spec.ports() {
			ports = append(ports, sdx.PhysicalPort{ID: port})
		}
		_, err := ctrl.AddParticipant(sdx.ParticipantConfig{
			AS:    spec.AS,
			Name:  string(rune('A' + i)),
			Ports: ports,
		})
		if err != nil {
			return nil, err
		}
	}
	for _, spec := range specs {
		if len(spec.Outbound) == 0 && len(spec.Inbound) == 0 {
			continue
		}
		if err := ctrl.SetPolicy(spec.AS, spec.Inbound, spec.Outbound); err != nil {
			return nil, err
		}
	}
	ctrl.Recompile()
	return ctrl, nil
}

// newPeer builds a border-router simulator with a redialing session
// against the "rs" listener. The caller starts the dialer.
func newPeer(n *simnet.Network, ctrl *sdx.Controller, spec PeerSpec, opts Options, seed int64) *Peer {
	p := &Peer{Spec: spec, rib: make(map[iputil.Prefix]ribEntry)}
	p.dialer = &bgp.Dialer{
		Dial: func(context.Context) (net.Conn, error) {
			return n.Dial("rs", spec.Tag())
		},
		Config: bgp.SessionConfig{
			LocalAS:  spec.AS,
			RouterID: iputil.Addr(spec.AS),
			HoldTime: opts.HoldTime,
			OnUpdate: p.onUpdate,
			// Both ends publish into the controller's registry: a hold
			// expiry races between the two sides of a starved session,
			// and whichever fires first must be the one counted.
			Metrics: ctrl.Metrics(),
		},
		MinBackoff:       opts.MinBackoff,
		MaxBackoff:       opts.MaxBackoff,
		Seed:             seed + int64(spec.AS),
		HandshakeTimeout: 2 * time.Second,
		OnUp:             p.onUp,
	}
	return p
}

// Stop tears the deployment down: the reconciler loop first (a repair
// must not race the teardown), then the route server (a closing
// exchange must not record PeerDowns), then every dialer, then the agent
// listener, and waits for all goroutines.
func (d *Deployment) Stop() {
	d.Rec.Stop()
	_ = d.Srv.Close()
	d.cancel()
	_ = d.swLn.Close()
	d.wg.Wait()
}

// OFClient returns the live OpenFlow client, or nil while the control
// channel is down.
func (d *Deployment) OFClient() *openflow.Client { return d.red.Client() }

// ServerView renders what the route server currently advertises to as,
// sorted, in the same format as Peer.RIBDump.
func (d *Deployment) ServerView(as uint32) []string {
	ads := d.Ctrl.RoutesFor(as)
	lines := make([]string, 0, len(ads))
	for _, ad := range ads {
		lines = append(lines, fmt.Sprintf("%s via %s path %v", ad.Prefix, ad.NextHop, ad.Attrs.ASPath))
	}
	sort.Strings(lines)
	return lines
}

// Converged returns nil when every BGP session is Established, the
// OpenFlow channel is up, and every peer's Loc-RIB matches the server's
// advertised view exactly. Otherwise it describes the first divergence.
func (d *Deployment) Converged() error {
	for as, p := range d.Peers {
		if !p.Established() {
			return fmt.Errorf("AS%d: session not established", as)
		}
	}
	if d.red.Client() == nil {
		return fmt.Errorf("openflow control channel down")
	}
	for as, p := range d.Peers {
		got, want := p.RIBDump(), d.ServerView(as)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			return fmt.Errorf("AS%d Loc-RIB diverges from server view\n peer:\n  %s\n server:\n  %s",
				as, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
	}
	return nil
}

// WaitConverged polls Converged until it holds on two consecutive checks
// (so a mid-churn coincidence does not count) or the timeout passes, in
// which case the last divergence is returned.
func (d *Deployment) WaitConverged(timeout time.Duration) error {
	_, err := waitConverged(d.Net.Clock(), timeout, d.Converged)
	return err
}

// ConvergeMetric is the registry histogram recording fault-heal to
// steady-state latencies, in virtual-clock nanoseconds.
const ConvergeMetric = "chaos_converge_ns"

// WaitConvergedTimed is WaitConverged called at the moment a fault heals:
// it measures the virtual-clock latency until the convergence streak
// begins and records it into the controller registry's ConvergeMetric
// histogram, so a chaos run reports p50/p95/p99 convergence times that
// are independent of the host's real-time load and the polling cadence's
// confirmation checks.
func (d *Deployment) WaitConvergedTimed(timeout time.Duration) error {
	return waitConvergedTimed(d.Net.Clock(), d.Ctrl, timeout, d.Converged)
}

// waitConvergedTimed is waitConverged recording its latency into the
// controller registry's ConvergeMetric on success.
func waitConvergedTimed(clock *simnet.Clock, ctrl *sdx.Controller, timeout time.Duration, conv func() error) error {
	elapsed, err := waitConverged(clock, timeout, conv)
	if err == nil {
		ctrl.Metrics().Histogram(ConvergeMetric).Observe(int64(elapsed))
	}
	return err
}

// waitConverged polls conv until it holds on two consecutive checks or
// the timeout passes. On success it returns the virtual-clock time from
// the call to the first check of the successful streak.
func waitConverged(clock *simnet.Clock, timeout time.Duration, conv func() error) (time.Duration, error) {
	start := clock.Now()
	deadline := time.Now().Add(timeout)
	streak := 0
	var at time.Duration
	var last error
	for time.Now().Before(deadline) {
		if err := conv(); err != nil {
			last = err
			streak = 0
		} else {
			if streak == 0 {
				at = clock.Now()
			}
			streak++
			if streak >= 2 {
				return at - start, nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if last == nil {
		last = fmt.Errorf("converged only once before timeout")
	}
	return 0, fmt.Errorf("not converged after %s: %w", timeout, last)
}

// ruleDump renders a flow table sorted and cookie-tagged, so two tables
// are equal iff their dumps are equal.
func ruleDump(t *dataplane.FlowTable) []string {
	entries := t.Entries()
	lines := make([]string, len(entries))
	for i, e := range entries {
		lines[i] = fmt.Sprintf("cookie=%d %s", e.Cookie, e)
	}
	sort.Strings(lines)
	return lines
}

// LocalRules dumps the controller's local fabric table.
func (d *Deployment) LocalRules() []string { return ruleDump(d.Ctrl.Switch().Table()) }

// RemoteRules dumps the remote fabric's table as programmed over the
// control channel.
func (d *Deployment) RemoteRules() []string { return ruleDump(d.Remote.Table()) }

// VerifyTables runs the semantic verifier (internal/verify) over the
// controller's local table and the remote switch's table as programmed
// over the control channel: both must be free of equal-priority conflicts
// and shadowed rules. Chaos soaks call it at converged checkpoints.
func (d *Deployment) VerifyTables() error {
	rep := verify.Table(d.Ctrl.Switch().Table())
	remote := verify.Table(d.Remote.Table())
	for _, f := range remote.Findings {
		f.Switch = "remote"
		rep.Findings = append(rep.Findings, f)
	}
	rep.Rules += remote.Rules
	return rep.Err()
}

var (
	vmacRE = regexp.MustCompile(`\ba2(?::[0-9a-f]{2}){5}\b`)
	ipRE   = regexp.MustCompile(`\b(?:\d{1,3}\.){3}\d{1,3}\b`)
)

// Normalize rewrites run-specific virtual identifiers — VMACs and
// VNH-subnet addresses — into sequential first-occurrence tokens, so two
// runs that allocated the same forwarding structure in a different order
// compare equal, while structural differences (prefixes grouped
// differently, routes missing) still compare unequal.
func Normalize(lines []string) []string {
	macTok := make(map[string]string)
	vnhTok := make(map[string]string)
	out := make([]string, len(lines))
	for i, ln := range lines {
		ln = vmacRE.ReplaceAllStringFunc(ln, func(m string) string {
			t, ok := macTok[m]
			if !ok {
				t = fmt.Sprintf("vmac#%d", len(macTok)+1)
				macTok[m] = t
			}
			return t
		})
		ln = ipRE.ReplaceAllStringFunc(ln, func(m string) string {
			a, err := iputil.ParseAddr(m)
			if err != nil || !sdx.VNHSubnet.Contains(a) {
				return m
			}
			t, ok := vnhTok[m]
			if !ok {
				t = fmt.Sprintf("vnh#%d", len(vnhTok)+1)
				vnhTok[m] = t
			}
			return t
		})
		out[i] = ln
	}
	return out
}

// NormalizeText is Normalize over a newline-joined blob (e.g. a
// Compiled.Canonical dump).
func NormalizeText(text string) string {
	return strings.Join(Normalize(strings.Split(text, "\n")), "\n")
}
