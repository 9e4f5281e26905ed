// Package chaostest assembles a complete SDX deployment — controller,
// BGP route-server endpoint, participant border-router simulators and a
// remote OpenFlow fabric of one switch or several — entirely over an
// internal/simnet Network, and provides the convergence and golden-run
// comparison helpers the chaos soak tests assert with.
//
// The same FabricDeployment runs twice per seed: once over a fault-free
// network (the golden run) and once under a simnet.GenScript fault
// schedule. After the script completes and tainted transports are
// bounced, the faulted run must converge to exactly the golden run's
// state: identical Loc-RIBs at every border router and identical
// installed rule tables on the remote fabric. VNH/VMAC allocation order
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
	"sdx/internal/iputil"
	"sdx/internal/openflow"
	"sdx/internal/pkt"
	"sdx/internal/probe"
	"sdx/internal/simnet"
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
// same format as FabricDeployment.ServerView.
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

// ConvergeMetric is the registry histogram recording fault-heal to
// steady-state latencies, in nanoseconds.
const ConvergeMetric = "chaos_converge_ns"

// waitConverged polls conv until it holds on two consecutive checks or
// the timeout passes. On success it returns the time from the call to
// the first check of the successful streak.
func waitConverged(timeout time.Duration, conv func() error) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(timeout)
	streak := 0
	var at time.Duration
	var last error
	for time.Now().Before(deadline) {
		if err := conv(); err != nil {
			last = err
			streak = 0
		} else {
			if streak == 0 {
				at = time.Since(start)
			}
			streak++
			if streak >= 2 {
				return at, nil
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
