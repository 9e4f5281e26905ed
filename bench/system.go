package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdx"
	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/experiments"
	"sdx/internal/iputil"
	"sdx/internal/openflow"
	"sdx/internal/pkt"
	"sdx/internal/workload"
)

// fixture names an exchange. Like a dataset, it is the same in every
// run: it is generated from fixtureSeed, and a run's -seed drives only
// what is load — the update schedule, the churn trace, the packet
// streams. Exchanges from different seeds differ by a fifth in set-up
// time and by a third in burst throughput, which would drown every
// regression bound in input variance.
type fixture struct {
	name         string
	grouped      bool // experiments.NewGroupedExchange, else workload.Load + DefaultPolicyMix
	participants int
	size         int // prefix groups when grouped, prefixes otherwise
}

var (
	fixtureGrouped = fixture{name: "grouped-100x400", grouped: true, participants: 100, size: 400}
	fixtureTable   = fixture{name: "table-100x20k", participants: 100, size: 20000}
)

// build loads the exchange and returns the policies still to install.
// The grouped exchange comes with its policies installed, so its table
// transfer in setup takes the fast path prefix by prefix. The table
// exchange gets its policy mix after the transfer, as when an operator
// loads policy onto a route server that already holds its tables: with
// the mix in place first, the transfer alone is ~15k fast compiles and
// 14 s of set-up.
const fixtureSeed = 1

func (f fixture) build() (*core.Controller, *workload.IXP, map[uint32]*workload.Policies, error) {
	if f.grouped {
		ctrl, x, err := experiments.NewGroupedExchange(f.participants, f.size, fixtureSeed)
		return ctrl, x, nil, err
	}
	x := workload.NewIXP(workload.DefaultTopology(f.participants, f.size, fixtureSeed))
	ctrl, err := workload.Load(x)
	if err != nil {
		return nil, nil, nil, err
	}
	return ctrl, x, workload.AssignPolicies(x, workload.DefaultPolicyMix(fixtureSeed)), nil
}

// Addressing the bench owns: the route server's AS, the source address
// that marks probe packets, and the AS-path hop that marks a paced
// update's path (the hop before it carries the update's salt).
const (
	routeServerAS = 64512
	pathMarker    = 64999
	saltSpace     = 60000
)

var probeSrcIP = iputil.MustParseAddr("198.18.0.1")

// router is a bench-driven border router: a real BGP session into the
// route server and the FIB it learns over that session.
type router struct {
	as    uint32
	port  core.PhysicalPort
	table []iputil.Prefix // what it announces
	sess  *bgp.Session

	// last is the last action sent per prefix (nil = withdrawn), for the
	// end-of-run Adj-RIB-In check.
	last map[iputil.Prefix]*bgp.PathAttrs

	mu  sync.Mutex
	fib map[iputil.Prefix]iputil.Addr
	// onAd, when set, sees every announcement after the FIB took it, on
	// the session's reader goroutine.
	onAd func(p iputil.Prefix, attrs *bgp.PathAttrs, at time.Time)
}

func dialRouter(addr string, wp *workload.Participant) (*router, error) {
	r := &router{
		as: wp.AS, port: wp.Ports[0], table: wp.Prefixes,
		last: make(map[iputil.Prefix]*bgp.PathAttrs),
		fib:  make(map[iputil.Prefix]iputil.Addr),
	}
	sess, err := sdx.DialBGP(addr, bgp.SessionConfig{
		LocalAS:  wp.AS,
		RouterID: r.port.IP(),
		OnUpdate: func(_ *bgp.Session, u *bgp.Update) {
			at := time.Now()
			r.mu.Lock()
			for _, p := range u.Withdrawn {
				delete(r.fib, p)
			}
			for _, p := range u.NLRI {
				r.fib[p] = u.Attrs.NextHop
			}
			onAd := r.onAd
			r.mu.Unlock()
			if onAd != nil {
				for _, p := range u.NLRI {
					onAd(p, u.Attrs, at)
				}
			}
		},
	})
	if err != nil {
		return nil, err
	}
	r.sess = sess
	return r, nil
}

func (r *router) setOnAd(fn func(iputil.Prefix, *bgp.PathAttrs, time.Time)) {
	r.mu.Lock()
	r.onAd = fn
	r.mu.Unlock()
}

func (r *router) nextHop(p iputil.Prefix) (iputil.Addr, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	nh, ok := r.fib[p]
	return nh, ok
}

// announceTable sends the router's whole table over its session in
// table-transfer sized UPDATEs and returns the number of prefixes sent.
func (r *router) announceTable() (int, error) {
	const perUpdate = 500
	for start := 0; start < len(r.table); start += perUpdate {
		end := min(start+perUpdate, len(r.table))
		err := r.send(&bgp.Update{
			Attrs: &bgp.PathAttrs{ASPath: []uint32{r.as}, NextHop: r.port.IP()},
			NLRI:  r.table[start:end],
		})
		if err != nil {
			return 0, fmt.Errorf("AS%d table transfer: %w", r.as, err)
		}
	}
	return len(r.table), nil
}

// system is one assembled SDX, wired the way fullsystem_test.go wires
// it: border routers speak BGP over loopback TCP to the route server,
// the controller programs a remote switch through the OpenFlow-style
// channel, and packets enter that remote switch's ports.
type system struct {
	ctrl *core.Controller
	ixp  *workload.IXP

	remote    *dataplane.Switch
	ofLn      net.Listener
	agentDone chan struct{}
	of        *openflow.Client
	spans     *recorder // nil with tracing off

	srv   *sdx.BGPServer
	queue *core.UpdateQueue

	announcers [2]*router // the two top announcers
	viewer     *router
	targets    []iputil.Prefix // policy-interacting prefixes only announcers[0] announces
	policies   [2][]core.Term  // the viewer's two alternating outbound policies

	probeEgress atomic.Int64 // remote port that last delivered a probe packet
	actionsSent atomic.Int64 // per-prefix actions the bench has sent over all sessions
}

// noEgress is probeEgress before any port has delivered a probe.
const noEgress = -1

// deliverProbe is the remote switch's delivery function for port id: it
// remembers the port in probeEgress when the packet is a probe.
func (s *system) deliverProbe(id pkt.PortID) func(pkt.Packet) {
	return func(p pkt.Packet) {
		if p.SrcIP == probeSrcIP {
			s.probeEgress.Store(int64(id))
		}
	}
}

// setup builds the fixture and assembles the system around it. spans is
// nil for an untraced run. What it covers is what setup_s reports.
func setup(fix fixture, spans *recorder) (s *system, err error) {
	s = &system{spans: spans}
	s.probeEgress.Store(noEgress)
	defer func() {
		if err != nil {
			s.teardown()
			s = nil
		}
	}()
	var late map[uint32]*workload.Policies
	if s.ctrl, s.ixp, late, err = fix.build(); err != nil {
		return s, err
	}
	top := s.ixp.TopAnnouncers()
	wa, wb, wv := top[0], top[1], top[len(top)-1]
	// The viewer's two policies both forward by port towards both
	// announcers, so under either every prefix they announce interacts
	// with policy and every bench update takes the fast path.
	s.policies = [2][]core.Term{
		{core.Fwd(pkt.MatchAll.DstPort(80), wa.AS), core.Fwd(pkt.MatchAll.DstPort(8080), wb.AS)},
		{core.Fwd(pkt.MatchAll.DstPort(443), wa.AS), core.Fwd(pkt.MatchAll.DstPort(8443), wb.AS)},
	}

	// Fabric switch "process": same ports as the controller's model.
	s.remote = dataplane.NewSwitch("remote")
	for _, id := range s.ctrl.Switch().PortIDs() {
		if err = s.remote.AddPort(id, "p", s.deliverProbe(id)); err != nil {
			return s, err
		}
	}
	if s.ofLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return s, err
	}
	s.agentDone = make(chan struct{})
	agent := openflow.NewAgent(s.remote)
	go func() {
		defer close(s.agentDone)
		// Returns when teardown closes the listener.
		_ = agent.ListenAndServe(s.ofLn)
	}()

	// Controller "process".
	if s.of, err = openflow.Dial(s.ofLn.Addr().String()); err != nil {
		return s, err
	}
	s.of.OnPacketIn = func(p pkt.Packet) {
		if egress, ok := s.ctrl.NormalEgress(p); ok {
			// A failed send means the channel died; every later Barrier reports it.
			_ = s.of.PacketOut(egress, p)
		}
	}
	s.of.Start()
	var sink core.RuleSink = openflow.Mirror{C: s.of}
	if spans != nil {
		sink = &timingSink{Mirror: openflow.Mirror{C: s.of}, rec: spans}
	}
	s.ctrl.AddRuleMirror(sink)
	if rep := s.ctrl.Recompile(); rep.Err != nil {
		return s, rep.Err
	}
	if err = s.of.Barrier(); err != nil {
		return s, err
	}

	if s.srv, err = sdx.ListenBGP(s.ctrl, "127.0.0.1:0", routeServerAS); err != nil {
		return s, err
	}
	s.queue = core.NewUpdateQueue(s.ctrl, core.QueueConfig{})
	s.srv.UseIngestQueue(s.queue)

	// Border router "processes". Dialing flushes the peer's Adj-RIB-In
	// (PeerUp), so each router re-announces its table.
	for i, wp := range []*workload.Participant{wa, wb, wv} {
		r, err := dialRouter(s.srv.Addr(), wp)
		if err != nil {
			return s, err
		}
		if i < len(s.announcers) {
			s.announcers[i] = r
		} else {
			s.viewer = r
		}
		n, err := r.announceTable()
		if err != nil {
			return s, err
		}
		s.actionsSent.Add(int64(n))
	}
	if err = s.drain(); err != nil {
		return s, err
	}
	// Install what policy is still outstanding and fold the table
	// transfer's fast-band rules, as the optimizer would.
	if err = workload.InstallPolicies(s.ctrl, late); err != nil {
		return s, err
	}
	if rep := s.ctrl.Recompile(core.CompilePolicy(wv.AS, nil, s.policies[0])); rep.Err != nil {
		return s, rep.Err
	}
	if err = s.of.Barrier(); err != nil {
		return s, err
	}
	if err = s.awaitViewerFIB(); err != nil {
		return s, err
	}
	s.targets = s.pickTargets()
	if len(s.targets) < 32 {
		return s, fmt.Errorf("%s: only %d policy-interacting prefixes to update", fix.name, len(s.targets))
	}
	return s, nil
}

// drain waits until every action sent so far has reached the ingest
// queue, applies what is pending, and waits for the flow-mods to land.
func (s *system) drain() error {
	deadline := time.Now().Add(30 * time.Second)
	for s.queue.Stats().Enqueued < s.actionsSent.Load() {
		if time.Now().After(deadline) {
			return fmt.Errorf("drain: %d of %d actions reached the queue", s.queue.Stats().Enqueued, s.actionsSent.Load())
		}
		// Sleeping (about a millisecond here) rather than yielding: a
		// spinning waiter would hold one of two cores against the drain
		// it is waiting for.
		time.Sleep(500 * time.Microsecond)
	}
	s.queue.Flush()
	if d := s.queue.Stats().Depth; d != 0 {
		return fmt.Errorf("drain: queue depth %d after flush", d)
	}
	return s.of.Barrier()
}

// awaitViewerFIB waits until the viewer's session has delivered every
// advertisement the controller has made to it.
func (s *system) awaitViewerFIB() error {
	want := s.ctrl.RoutesFor(s.viewer.as)
	deadline := time.Now().Add(10 * time.Second)
	for {
		missing := 0
		s.viewer.mu.Lock()
		for _, ad := range want {
			if s.viewer.fib[ad.Prefix] != ad.NextHop {
				missing++
			}
		}
		s.viewer.mu.Unlock()
		if missing == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("viewer FIB: %d of %d routes not learned", missing, len(want))
		}
		time.Sleep(time.Millisecond)
	}
}

// pickTargets lists the prefixes a paced update can use: announced by
// the first announcer alone, so its re-announcement is always the best
// route, and advertised to the viewer with a virtual next hop, so the
// update programs the fabric (otherwise the probe would take the
// PACKET_IN path and no rule would ever appear).
func (s *system) pickTargets() []iputil.Prefix {
	announcers := make(map[iputil.Prefix]int)
	for i := range s.ixp.Participants {
		for _, p := range s.ixp.Participants[i].Prefixes {
			announcers[p]++
		}
	}
	var out []iputil.Prefix
	for _, p := range s.announcers[0].table {
		if nh, ok := s.viewer.nextHop(p); ok && announcers[p] == 1 && core.VNHSubnet.Contains(nh) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	if len(out) > 256 {
		out = out[:256]
	}
	return out
}

// teardown stops everything setup started and waits for it. It is safe
// on a partially assembled system.
func (s *system) teardown() {
	if s.srv != nil {
		// Closing the server first keeps the session teardown from arming
		// the controller's 30 s route age-out timers.
		_ = s.srv.Close()
	}
	for _, r := range []*router{s.announcers[0], s.announcers[1], s.viewer} {
		if r != nil {
			_ = r.sess.Close()
		}
	}
	if s.queue != nil {
		s.queue.Stop()
	}
	if s.of != nil {
		_ = s.of.Close()
	}
	if s.ofLn != nil {
		_ = s.ofLn.Close()
		<-s.agentDone
	}
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// checkTables is the end-of-run output check: after a barrier, the
// remote switch's installed table equals the controller's local model.
func (s *system) checkTables() error {
	if err := s.drain(); err != nil {
		return err
	}
	groups, err := s.of.DumpFlows()
	if err != nil {
		return err
	}
	remote := tableLines(openflow.EntriesFromGroups(groups))
	local := tableLines(s.ctrl.Switch().Table().Entries())
	if len(remote) != len(local) {
		return fmt.Errorf("remote table has %d rules, local model %d", len(remote), len(local))
	}
	for i := range local {
		if local[i] != remote[i] {
			return fmt.Errorf("remote table differs from local model: %q vs %q", remote[i], local[i])
		}
	}
	if len(local) == 0 {
		return errors.New("no rules installed")
	}
	return nil
}

func tableLines(es []*dataplane.FlowEntry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = fmt.Sprintf("%d %s", e.Cookie, e)
	}
	sort.Strings(out)
	return out
}
