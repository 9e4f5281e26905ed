// Fabric deployment: the remote side of the chaos harness is a
// fabric.Topology — one switch, or several joined by redundant trunks —
// where every layer rides a faultable simnet transport:
//
//   - one OpenFlow control channel per switch (tag "ofctl-<name>" against
//     listener "switch-<name>"), each driving its switch's share of the
//     compiled policy through fabric.SwitchSink, so a reconnect resync
//     replays the static trunk band alongside the policy bands;
//   - one simnet pipe per trunk link carrying framed pkt.Packets between
//     the remote switches, so partitions, stalls, corruption and resets
//     hit the data plane's cross-switch forwarding, not just control;
//   - one redialing BGP session per participant's border router.
//
// The controller side is the same sdx.Exchange sdxd runs, given the
// topology: its fabric model mirrors the controller directly and acts as
// the authoritative per-switch rule state, and convergence requires every
// remote table to be byte-identical to its model switch. Because writes
// into a one-way partition vanish silently, a control channel can stay
// alive while its flow-mods are lost; the exchange's reconciler, reading
// each switch back over its channel, repairs that drift.
package chaostest

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"sdx"
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

// SwitchListener and SwitchTag name the per-switch OpenFlow endpoints in
// the simnet namespace; scripted faults target one control channel
// without touching its siblings.
func SwitchListener(name string) string { return "switch-" + name }
func SwitchTag(name string) string      { return "ofctl-" + name }

// trunkTag is the simnet tag of topology link i. A pipe's halves are
// tagged trunkTag and trunkTag+"-peer".
func trunkTag(i int, l fabric.Link) string { return fmt.Sprintf("trunk%d-%s-%s", i, l.A, l.B) }

// FabricDeployment is one full SDX stack wired over a simnet Network:
// the simulated remote side (switches, agents, trunks, border routers)
// around the exchange.
type FabricDeployment struct {
	Net   *simnet.Network
	Ctrl  *sdx.Controller
	Peers map[uint32]*Peer
	// Prb probes all participant port pairs of the remote fabric. Always
	// constructed; its loop runs only when Options.ProbeInterval is set.
	Prb *probe.Prober

	specs  []PeerSpec
	topo   fabric.Topology
	names  []string // sorted switch names
	x      *sdx.Exchange
	remote map[string]*dataplane.Switch
	lns    []*simnet.Listener // closed on Stop
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu         sync.Mutex
	appDeliver map[pkt.PortID]func(pkt.Packet)
}

// StartFabric brings up the whole stack on n: route server at "rs", one
// remote switch+agent per topology member, per-switch control channels,
// trunk pipes between the switches, and one redialing BGP peer per spec.
// Every participant port in the specs must be placed by topo.Ports. Seed
// makes every dialer's retry jitter reproducible.
func StartFabric(n *simnet.Network, seed int64, specs []PeerSpec, topo fabric.Topology, opts Options) (*FabricDeployment, error) {
	opts.fill()
	for _, spec := range specs {
		for _, port := range spec.ports() {
			if _, ok := topo.Ports[port]; !ok {
				return nil, fmt.Errorf("chaostest: AS%d port %d not placed by the topology", spec.AS, port)
			}
		}
	}
	ctrl, err := buildController(specs, opts)
	if err != nil {
		return nil, err
	}
	fd := &FabricDeployment{
		Net:        n,
		Ctrl:       ctrl,
		specs:      specs,
		topo:       topo,
		names:      switchNames(topo),
		remote:     make(map[string]*dataplane.Switch),
		appDeliver: make(map[pkt.PortID]func(pkt.Packet)),
	}
	fd.ctx, fd.cancel = context.WithCancel(context.Background())
	fail := func(err error) (*FabricDeployment, error) {
		fd.Stop()
		return nil, err
	}

	// Remote switches and their agents: participant ports per the
	// topology (delivery punts probes and feeds the application
	// handlers), trunk ports per the links (delivery wired to the trunk
	// pipes below).
	agents := make(map[string]*openflow.Agent, len(fd.names))
	for _, name := range fd.names {
		sw := dataplane.NewSwitch(name)
		agents[name] = openflow.NewAgent(sw)
		for port, owner := range topo.Ports {
			if owner != name {
				continue
			}
			app := func(p pkt.Packet) { fd.deliverApp(port, p) }
			if err := sw.AddPort(port, fmt.Sprintf("p%d", port), puntProbes(agents[name], port, app)); err != nil {
				return fail(err)
			}
		}
		fd.remote[name] = sw
	}
	for i, l := range topo.Links {
		a, b := fd.remote[l.A], fd.remote[l.B]
		if a == nil || b == nil {
			return fail(fmt.Errorf("chaostest: link between unknown switches %q-%q", l.A, l.B))
		}
		if err := a.AddPort(l.PortA, "trunk", nil); err != nil {
			return fail(err)
		}
		if err := b.AddPort(l.PortB, "trunk", nil); err != nil {
			return fail(err)
		}
		outA := make(chan pkt.Packet, 128)
		outB := make(chan pkt.Packet, 128)
		if err := a.SetDeliver(l.PortA, enqueue(outA)); err != nil {
			return fail(err)
		}
		if err := b.SetDeliver(l.PortB, enqueue(outB)); err != nil {
			return fail(err)
		}
		fd.wg.Add(1)
		go fd.runTrunk(l, trunkTag(i, l), outA, outB)
	}
	for _, name := range fd.names {
		if err := fd.serve(agents[name], SwitchListener(name)); err != nil {
			return fail(err)
		}
	}

	rsLn, err := n.Listen("rs")
	if err != nil {
		return fail(err)
	}
	fd.x, err = sdx.StartExchange(ctrl, sdx.ExchangeConfig{
		Listener: rsLn,
		LocalAS:  64512,
		Dial: func(_ context.Context, name string) (*openflow.Client, error) {
			conn, err := n.Dial(SwitchListener(name), SwitchTag(name))
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
		Topology:          &fd.topo,
		Logf:              opts.Logf,
		ReconcileInterval: opts.ReconcileInterval,
		ProbeInterval:     opts.ProbeInterval,
		MinBackoff:        opts.MinBackoff,
		MaxBackoff:        opts.MaxBackoff,
		Seed:              seed + 1000,
	})
	if err != nil {
		_ = rsLn.Close()
		return fail(err)
	}
	fd.Prb = fd.x.Prober()
	fd.Peers = make(map[uint32]*Peer, len(specs))
	for _, spec := range specs {
		p := newPeer(n, ctrl, spec, opts, seed)
		fd.Peers[spec.AS] = p
		fd.wg.Add(1)
		go func() {
			defer fd.wg.Done()
			_ = p.dialer.Run(fd.ctx)
		}()
	}
	return fd, nil
}

// switchNames returns the topology's switch names, sorted.
func switchNames(topo fabric.Topology) []string {
	names := append([]string(nil), topo.Switches...)
	sort.Strings(names)
	return names
}

// serve runs a remote switch's agent on the simnet listener name.
func (fd *FabricDeployment) serve(agent *openflow.Agent, name string) error {
	ln, err := fd.Net.Listen(name)
	if err != nil {
		return err
	}
	fd.lns = append(fd.lns, ln)
	fd.wg.Add(1)
	go func() {
		defer fd.wg.Done()
		_ = agent.ListenAndServe(ln)
	}()
	return nil
}

// Stop tears the deployment down: the exchange first (its loops, then
// the route server, then its control channels), then every border
// router, trunk and the remote side's listeners, and waits for all
// goroutines.
func (fd *FabricDeployment) Stop() {
	if fd.x != nil {
		fd.x.Stop()
	}
	fd.cancel()
	for _, ln := range fd.lns {
		_ = ln.Close()
	}
	fd.wg.Wait()
}

// deliverApp hands a delivered packet to the application handler
// installed for its port with OnDeliver.
func (fd *FabricDeployment) deliverApp(port pkt.PortID, p pkt.Packet) {
	fd.mu.Lock()
	h := fd.appDeliver[port]
	fd.mu.Unlock()
	if h != nil {
		h(p)
	}
}

// Targets returns every faultable transport of a deployment of specs on
// topo with both endpoints named, so GenScript schedules can partition
// any of them in one direction only: BGP sessions, per-switch control
// channels in sorted switch order, and the inter-switch trunks.
func Targets(specs []PeerSpec, topo fabric.Topology) []simnet.Target {
	ts := make([]simnet.Target, 0, len(specs)+len(topo.Switches)+len(topo.Links))
	for _, s := range specs {
		ts = append(ts, simnet.Target{Tag: s.Tag(), Peer: "rs"})
	}
	for _, name := range switchNames(topo) {
		ts = append(ts, simnet.Target{Tag: SwitchTag(name), Peer: SwitchListener(name)})
	}
	for i, l := range topo.Links {
		// A directed partition between a pipe's halves starves exactly
		// one trunk direction.
		tag := trunkTag(i, l)
		ts = append(ts, simnet.Target{Tag: tag, Peer: tag + "-peer"})
	}
	return ts
}

// SwitchNames returns the sorted fabric member names.
func (fd *FabricDeployment) SwitchNames() []string {
	return append([]string(nil), fd.names...)
}

// OFClient returns one switch's live control-channel client, or nil
// while it is down.
func (fd *FabricDeployment) OFClient(name string) *openflow.Client { return fd.x.Client(name) }

// ModelRules dumps the local model's table for one switch — the expected
// remote state.
func (fd *FabricDeployment) ModelRules(name string) []string {
	return ruleDump(fd.x.Model().Switch(name).Table())
}

// RemoteRules dumps one remote switch's table as programmed over its
// control channel.
func (fd *FabricDeployment) RemoteRules(name string) []string {
	return ruleDump(fd.remote[name].Table())
}

// InjectRemote offers a packet to the remote fabric on a participant
// port, entering at the switch owning it.
func (fd *FabricDeployment) InjectRemote(port pkt.PortID, p pkt.Packet) bool {
	name, ok := fd.topo.Ports[port]
	if !ok {
		return false
	}
	return fd.remote[name].Inject(port, p) > 0
}

// OnDeliver installs the application delivery handler for a participant
// port on the remote fabric. Handlers sit behind the probe punt: liveness
// probes go back to the controller and never reach the handler.
func (fd *FabricDeployment) OnDeliver(port pkt.PortID, deliver func(pkt.Packet)) error {
	if _, ok := fd.topo.Ports[port]; !ok {
		return fmt.Errorf("chaostest: unknown participant port %d", port)
	}
	fd.mu.Lock()
	fd.appDeliver[port] = deliver
	fd.mu.Unlock()
	return nil
}

// ReconcileOnce drives one deterministic reconciler pass.
func (fd *FabricDeployment) ReconcileOnce() reconcile.Summary { return fd.x.Reconciler().RunOnce() }

// ServerView renders what the route server currently advertises to as,
// sorted, in the same format as Peer.RIBDump.
func (fd *FabricDeployment) ServerView(as uint32) []string {
	ads := fd.Ctrl.RoutesFor(as)
	lines := make([]string, 0, len(ads))
	for _, ad := range ads {
		lines = append(lines, fmt.Sprintf("%s via %s path %v", ad.Prefix, ad.NextHop, ad.Attrs.ASPath))
	}
	sort.Strings(lines)
	return lines
}

// sessionsConverged returns nil when every BGP session is Established
// and every peer's Loc-RIB matches the server's advertised view exactly.
func (fd *FabricDeployment) sessionsConverged() error {
	for _, spec := range fd.specs {
		if !fd.Peers[spec.AS].Established() {
			return fmt.Errorf("AS%d: session not established", spec.AS)
		}
	}
	for _, spec := range fd.specs {
		got, want := fd.Peers[spec.AS].RIBDump(), fd.ServerView(spec.AS)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			return fmt.Errorf("AS%d Loc-RIB diverges from server view\n peer:\n  %s\n server:\n  %s",
				spec.AS, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
	}
	return nil
}

// Converged returns nil when the BGP sessions have converged, every
// control channel is up and every remote switch's table is
// byte-identical to the local model's. It only observes: drift heals
// through the reconciler, not through this check.
func (fd *FabricDeployment) Converged() error {
	if err := fd.sessionsConverged(); err != nil {
		return err
	}
	for _, name := range fd.names {
		if fd.OFClient(name) == nil {
			return fmt.Errorf("switch %s: control channel down", name)
		}
		want, got := fd.ModelRules(name), fd.RemoteRules(name)
		if strings.Join(want, "\n") != strings.Join(got, "\n") {
			return fmt.Errorf("switch %s table diverges from model\n remote:\n  %s\n model:\n  %s",
				name, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
	}
	return nil
}

// WaitConverged polls Converged until it holds on two consecutive checks
// (so a mid-churn coincidence does not count) or the timeout passes, in
// which case the last divergence is returned.
func (fd *FabricDeployment) WaitConverged(timeout time.Duration) error {
	_, err := waitConverged(timeout, fd.Converged)
	return err
}

// WaitConvergedTimed is WaitConverged called at the moment a fault heals:
// it measures the latency until the convergence streak begins and
// records it into the controller registry's ConvergeMetric histogram, so
// a chaos run reports p50/p95/p99 convergence times without the polling
// cadence's confirmation checks.
func (fd *FabricDeployment) WaitConvergedTimed(timeout time.Duration) error {
	elapsed, err := waitConverged(timeout, fd.Converged)
	if err == nil {
		fd.Ctrl.Metrics().Histogram(ConvergeMetric).Observe(int64(elapsed))
	}
	return err
}

// VerifyTables runs the semantic verifier (internal/verify) over every
// switch of both fabrics: the local model and the remote switches as
// programmed over their control channels. Each table must be free of
// equal-priority conflicts and shadowed rules, and each switch must carry
// a complete trunk band for the topology's participant ports. Chaos soaks
// call it at converged checkpoints — a resync that replayed bands in the
// wrong shape shows up here even if forwarding happens to agree.
func (fd *FabricDeployment) VerifyTables() error {
	rep := verify.Fabric(fd.x.Model(), fd.topo)
	for _, name := range fd.names {
		es := fd.remote[name].Table().Entries()
		r := verify.Entries(es)
		for _, f := range r.Findings {
			f.Switch = "remote:" + name
			rep.Findings = append(rep.Findings, f)
		}
		rep.Rules += r.Rules
		for _, f := range verify.TrunkCoverage(fd.topo, name, es) {
			f.Switch = "remote:" + name
			rep.Findings = append(rep.Findings, f)
		}
	}
	return rep.Err()
}

// --- trunk transport ---------------------------------------------------------

// enqueue adapts a switch delivery callback to a bounded channel,
// dropping on overflow — a congested trunk loses packets, it does not
// stall the emitting switch's pipeline.
func enqueue(ch chan pkt.Packet) func(pkt.Packet) {
	return func(p pkt.Packet) {
		select {
		case ch <- p:
		default:
		}
	}
}

// runTrunk carries one trunk link over a sequence of simnet pipes: the
// A-side half carries tag, the B-side half tag+"-peer". Any transport
// error (reset, corrupted frame, teardown) drops the pipe and relinks
// after a short pause; the outbound channels persist across relinks, so
// only in-flight frames are lost.
func (fd *FabricDeployment) runTrunk(l fabric.Link, tag string, outA, outB chan pkt.Packet) {
	defer fd.wg.Done()
	ctx := fd.ctx
	for ctx.Err() == nil {
		ca, cb := fd.Net.Pipe(tag)
		var once sync.Once
		broken := make(chan struct{})
		fail := func() { once.Do(func() { close(broken) }) }
		var ewg sync.WaitGroup
		ewg.Add(4)
		go trunkWriter(&ewg, ca, outA, broken, fail)
		go trunkWriter(&ewg, cb, outB, broken, fail)
		go trunkReader(&ewg, ca, fd.remote[l.A], l.PortA, fail)
		go trunkReader(&ewg, cb, fd.remote[l.B], l.PortB, fail)
		select {
		case <-ctx.Done():
		case <-broken:
		}
		_ = ca.Close()
		_ = cb.Close()
		ewg.Wait()
		if ctx.Err() == nil {
			time.Sleep(20 * time.Millisecond)
		}
	}
}

func trunkWriter(wg *sync.WaitGroup, conn net.Conn, out <-chan pkt.Packet, broken <-chan struct{}, fail func()) {
	defer wg.Done()
	for {
		select {
		case <-broken:
			return
		case p := <-out:
			if err := writeTrunkFrame(conn, p); err != nil {
				fail()
				return
			}
		}
	}
}

func trunkReader(wg *sync.WaitGroup, conn net.Conn, sw *dataplane.Switch, in pkt.PortID, fail func()) {
	defer wg.Done()
	br := bufio.NewReader(conn)
	for {
		p, err := readTrunkFrame(br)
		if err != nil {
			fail()
			return
		}
		sw.Inject(in, p)
	}
}

// --- trunk frame codec -------------------------------------------------------

// The trunk frame format: a magic word and body length, then the located
// packet's header fields and payload. The magic catches stream desync
// after corruption, turning garbage into a relink instead of an endless
// stream of phantom packets.
const (
	trunkMagic    = 0x5d781f2a
	maxTrunkFrame = 1 << 16
)

func writeTrunkFrame(w io.Writer, p pkt.Packet) error {
	if len(p.Payload) > maxTrunkFrame-64 {
		return fmt.Errorf("chaostest: trunk frame payload too large (%d)", len(p.Payload))
	}
	body := make([]byte, 0, 35+len(p.Payload))
	body = binary.BigEndian.AppendUint32(body, uint32(p.InPort))
	src, dst := p.SrcMAC.Octets(), p.DstMAC.Octets()
	body = append(body, src[:]...)
	body = append(body, dst[:]...)
	body = binary.BigEndian.AppendUint16(body, p.EthType)
	body = binary.BigEndian.AppendUint32(body, uint32(p.SrcIP))
	body = binary.BigEndian.AppendUint32(body, uint32(p.DstIP))
	body = append(body, p.Proto)
	body = binary.BigEndian.AppendUint16(body, p.SrcPort)
	body = binary.BigEndian.AppendUint16(body, p.DstPort)
	body = binary.BigEndian.AppendUint32(body, uint32(len(p.Payload)))
	body = append(body, p.Payload...)

	frame := make([]byte, 0, 8+len(body))
	frame = binary.BigEndian.AppendUint32(frame, trunkMagic)
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(body)))
	frame = append(frame, body...)
	_, err := w.Write(frame)
	return err
}

func readTrunkFrame(r io.Reader) (pkt.Packet, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return pkt.Packet{}, err
	}
	if binary.BigEndian.Uint32(hdr[:4]) != trunkMagic {
		return pkt.Packet{}, fmt.Errorf("chaostest: bad trunk frame magic")
	}
	n := binary.BigEndian.Uint32(hdr[4:])
	if n < 35 || n > maxTrunkFrame {
		return pkt.Packet{}, fmt.Errorf("chaostest: bad trunk frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return pkt.Packet{}, err
	}
	var p pkt.Packet
	p.InPort = pkt.PortID(binary.BigEndian.Uint32(body[0:4]))
	var src, dst [6]byte
	copy(src[:], body[4:10])
	copy(dst[:], body[10:16])
	p.SrcMAC, p.DstMAC = pkt.MACFromOctets(src), pkt.MACFromOctets(dst)
	p.EthType = binary.BigEndian.Uint16(body[16:18])
	p.SrcIP = iputil.Addr(binary.BigEndian.Uint32(body[18:22]))
	p.DstIP = iputil.Addr(binary.BigEndian.Uint32(body[22:26]))
	p.Proto = body[26]
	p.SrcPort = binary.BigEndian.Uint16(body[27:29])
	p.DstPort = binary.BigEndian.Uint16(body[29:31])
	plen := binary.BigEndian.Uint32(body[31:35])
	if plen != n-35 {
		return pkt.Packet{}, fmt.Errorf("chaostest: trunk frame payload length mismatch")
	}
	if plen > 0 {
		p.Payload = body[35:]
	}
	return p, nil
}
