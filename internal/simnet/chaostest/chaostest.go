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
	"sdx/internal/dataplane"
	"sdx/internal/fabric"
	"sdx/internal/iputil"
	"sdx/internal/openflow"
	"sdx/internal/pkt"
	"sdx/internal/probe"
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

// stack is what both deployments share: the controller side, the same
// sdx.Exchange sdxd runs, and the border routers, with their lifetimes.
// Its exported fields and methods are the deployments' own.
type stack struct {
	Net   *simnet.Network
	Ctrl  *sdx.Controller
	Peers map[uint32]*Peer

	specs  []PeerSpec
	x      *sdx.Exchange
	conv   func() error       // the deployment's Converged
	lns    []*simnet.Listener // closed on Stop
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Deployment is one full SDX stack wired over a simnet Network: the
// simulated remote side (switch, agent, border routers) around the
// exchange.
type Deployment struct {
	*stack
	Remote *dataplane.Switch
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
	// ProbeInterval, when non-zero, starts the continuous dataplane
	// liveness probe loop at that period.
	ProbeInterval time.Duration
	// Logf, when non-nil, receives the exchange's logging: control
	// channel life cycle, reconciler repairs, probe health transitions.
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
	remote := dataplane.NewSwitch("chaos-remote")
	agent := openflow.NewAgent(remote)
	for i, spec := range specs {
		for _, port := range spec.ports() {
			if err := remote.AddPort(port, fmt.Sprintf("%c%d", 'A'+i, port), puntProbes(agent, port, nil)); err != nil {
				return nil, err
			}
		}
	}
	s, err := newStack(n, specs, opts)
	if err != nil {
		return nil, err
	}
	d := &Deployment{stack: s, Remote: remote}
	if err := s.serve(agent, "switch"); err != nil {
		d.Stop()
		return nil, err
	}
	err = s.start(seed, opts, nil, d.Converged, func(string) (string, string) { return "switch", OFTag })
	if err != nil {
		d.Stop()
		return nil, err
	}
	return d, nil
}

// newStack builds the controller for specs; start brings it up.
func newStack(n *simnet.Network, specs []PeerSpec, opts Options) (*stack, error) {
	ctrl, err := buildController(specs, opts)
	if err != nil {
		return nil, err
	}
	s := &stack{Net: n, Ctrl: ctrl, specs: specs}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s, nil
}

// serve runs a remote switch's agent on the simnet listener name.
func (s *stack) serve(agent *openflow.Agent, name string) error {
	ln, err := s.Net.Listen(name)
	if err != nil {
		return err
	}
	s.lns = append(s.lns, ln)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = agent.ListenAndServe(ln)
	}()
	return nil
}

// start runs the exchange over simnet dialers, endpoint mapping a switch
// name to the listener and connection tag of its control channel, then
// starts one redialing border router per spec. Seed makes every dialer's
// retry jitter reproducible.
func (s *stack) start(seed int64, opts Options, topo *fabric.Topology, conv func() error,
	endpoint func(name string) (listener, tag string)) error {
	rsLn, err := s.Net.Listen("rs")
	if err != nil {
		return err
	}
	chanSeed := seed + 1
	if topo != nil {
		chanSeed = seed + 1000
	}
	s.x, err = sdx.StartExchange(s.Ctrl, sdx.ExchangeConfig{
		Listener: rsLn,
		LocalAS:  64512,
		Dial: func(_ context.Context, name string) (*openflow.Client, error) {
			ln, tag := endpoint(name)
			conn, err := s.Net.Dial(ln, tag)
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
		Topology:          topo,
		Logf:              opts.Logf,
		ReconcileInterval: opts.ReconcileInterval,
		ProbeInterval:     opts.ProbeInterval,
		MinBackoff:        opts.MinBackoff,
		MaxBackoff:        opts.MaxBackoff,
		Seed:              chanSeed,
	})
	if err != nil {
		_ = rsLn.Close()
		return err
	}
	s.conv = conv
	s.Peers = make(map[uint32]*Peer, len(s.specs))
	for _, spec := range s.specs {
		p := newPeer(s.Net, s.Ctrl, spec, opts, seed)
		s.Peers[spec.AS] = p
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = p.dialer.Run(s.ctx)
		}()
	}
	return nil
}

// puntProbes is a remote port's delivery handler, the way sdx-switch
// delivers: a liveness probe goes back to the controller as a PACKET_IN
// stamped with the delivery port, anything else to app (nil drops it).
func puntProbes(agent *openflow.Agent, port pkt.PortID, app func(pkt.Packet)) func(pkt.Packet) {
	return func(p pkt.Packet) {
		if p.EthType == probe.EthType {
			p.InPort = port
			agent.Punt(p)
			return
		}
		if app != nil {
			app(p)
		}
	}
}

// ReconcileOnce drives one deterministic reconciler pass.
func (s *stack) ReconcileOnce() reconcile.Summary { return s.x.Reconciler().RunOnce() }

// buildController assembles a controller with the specs' participants and
// policies installed; the exchange runs the initial compile.
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

// Stop tears the deployment down: the exchange first (its loops, then
// the route server, then its control channels), then every border
// router and the remote side's listeners, and waits for all goroutines.
func (s *stack) Stop() {
	if s.x != nil {
		s.x.Stop()
	}
	s.cancel()
	for _, ln := range s.lns {
		_ = ln.Close()
	}
	s.wg.Wait()
}

// OFClient returns the live OpenFlow client, or nil while the control
// channel is down.
func (d *Deployment) OFClient() *openflow.Client { return d.x.Client(d.x.Switches()[0]) }

// ServerView renders what the route server currently advertises to as,
// sorted, in the same format as Peer.RIBDump.
func (s *stack) ServerView(as uint32) []string {
	ads := s.Ctrl.RoutesFor(as)
	lines := make([]string, 0, len(ads))
	for _, ad := range ads {
		lines = append(lines, fmt.Sprintf("%s via %s path %v", ad.Prefix, ad.NextHop, ad.Attrs.ASPath))
	}
	sort.Strings(lines)
	return lines
}

// sessionsConverged returns nil when every BGP session is Established
// and every peer's Loc-RIB matches the server's advertised view exactly.
func (s *stack) sessionsConverged() error {
	for _, spec := range s.specs {
		if !s.Peers[spec.AS].Established() {
			return fmt.Errorf("AS%d: session not established", spec.AS)
		}
	}
	for _, spec := range s.specs {
		got, want := s.Peers[spec.AS].RIBDump(), s.ServerView(spec.AS)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			return fmt.Errorf("AS%d Loc-RIB diverges from server view\n peer:\n  %s\n server:\n  %s",
				spec.AS, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
	}
	return nil
}

// Converged returns nil when the BGP sessions have converged and the
// OpenFlow channel is up. Otherwise it describes the first divergence.
func (d *Deployment) Converged() error {
	if err := d.sessionsConverged(); err != nil {
		return err
	}
	if d.OFClient() == nil {
		return fmt.Errorf("openflow control channel down")
	}
	return nil
}

// WaitConverged polls the deployment's Converged until it holds on two
// consecutive checks (so a mid-churn coincidence does not count) or the
// timeout passes, in which case the last divergence is returned.
func (s *stack) WaitConverged(timeout time.Duration) error {
	_, err := waitConverged(s.Net.Clock(), timeout, s.conv)
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
func (s *stack) WaitConvergedTimed(timeout time.Duration) error {
	elapsed, err := waitConverged(s.Net.Clock(), timeout, s.conv)
	if err == nil {
		s.Ctrl.Metrics().Histogram(ConvergeMetric).Observe(int64(elapsed))
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
