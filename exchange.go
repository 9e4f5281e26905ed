package sdx

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/fabric"
	"sdx/internal/flow"
	"sdx/internal/openflow"
	"sdx/internal/pkt"
	"sdx/internal/probe"
	"sdx/internal/reconcile"
)

// singleSwitch names the fabric switch of an exchange without a topology.
const singleSwitch = "fabric"

// ExchangeConfig describes one running exchange. Listener, Dial, LocalAS
// and Logf say where it runs; the rest are the settings a deployment
// tunes.
type ExchangeConfig struct {
	// Listener accepts the participants' BGP sessions. Required.
	Listener net.Listener
	// LocalAS is the route server's own AS.
	LocalAS uint32
	// Dial opens the control channel to the named fabric switch, hello
	// exchange included; the exchange redials whenever the channel dies.
	// Nil runs without an external fabric: no model, channel, reconciler
	// or prober.
	Dial func(ctx context.Context, name string) (*openflow.Client, error)
	// Topology places the participant ports on the fabric's switches and
	// links the switches by trunks; each switch gets one channel driving
	// its share of the fabric model, static trunk band included. Nil means
	// one switch named "fabric" holding every physical port the controller
	// has at start: the port set is fixed then, and a port added later is
	// on no switch. Used only with Dial.
	Topology *fabric.Topology
	// Logf receives life-cycle logging; nil discards it.
	Logf func(format string, args ...any)

	// OptimizeInterval is the background recompilation period (§4.3.2);
	// 0 runs none.
	OptimizeInterval time.Duration
	// ReconcileInterval is the reconciler's period; 0 leaves passes to
	// Reconciler().RunOnce.
	ReconcileInterval time.Duration
	// ProbeInterval is the liveness prober's period; 0 leaves it idle.
	ProbeInterval time.Duration
	// FlowSampleRate samples 1 in N packets of the controller's table into
	// flow analytics, keeping a FlowTopK heavy-hitter summary; 0 disables.
	FlowSampleRate, FlowTopK int
	// MinBackoff and MaxBackoff bound the control-channel redial schedule
	// (zero: the openflow.Redialer defaults). Channel i jitters its
	// retries from Seed+i.
	MinBackoff, MaxBackoff time.Duration
	Seed                   int64
}

// Exchange is the controller process of the paper's deployment (§5,
// Fig. 3), assembled once: the route server speaking BGP with its
// ingestion queue, one redialing control channel per fabric switch, the
// PACKET_IN relay, the reconciler reading every switch back over its
// channel, the liveness prober, the background optimizer and the
// optional flow analytics. sdxd, the chaos harnesses and the full-system
// test all start this same assembly.
type Exchange struct {
	ctrl  *Controller
	srv   *BGPServer
	queue *core.UpdateQueue
	model *fabric.Fabric // every switch's intended table; nil without Dial
	chans []*channel
	rec   *reconcile.Reconciler
	prb   *probe.Prober
	ana   *flow.Analytics
	logf  func(format string, args ...any)

	stopOptimizer func()
	cancel        context.CancelFunc
	wg            sync.WaitGroup

	// readback, when set, runs after each successful reconciler readback.
	readback func(name string)
}

// channel is one switch's control channel. gen is the reconciler's fence
// for the switch: it moves on channel up and down and on every
// controller write, so a pass that read the table back before any of
// them drops its repair.
type channel struct {
	name string
	red  *openflow.Redialer
	gen  atomic.Uint64

	mu   sync.Mutex
	sink *channelSink // registered with the controller while the channel is up
}

func (ch *channel) registered() *channelSink {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.sink
}

// channelSink is the controller's mirror for one live channel.
type channelSink struct {
	gen   *atomic.Uint64
	inner core.RuleSink // the switch's share of the fabric model, sent on the channel
	c     *openflow.Client
}

func (s *channelSink) AddBatch(es []*dataplane.FlowEntry) { s.gen.Add(1); s.inner.AddBatch(es) }
func (s *channelSink) Replace(cookie uint64, es []*dataplane.FlowEntry) {
	s.gen.Add(1)
	s.inner.Replace(cookie, es)
}
func (s *channelSink) DeleteCookie(cookie uint64) { s.gen.Add(1); s.inner.DeleteCookie(cookie) }

// FlushAll implements core.RuleFlusher.
func (s *channelSink) FlushAll() {
	s.gen.Add(1)
	if f, ok := s.inner.(core.RuleFlusher); ok {
		f.FlushAll()
	}
}

// Barrier implements core.RuleBarrier over the channel, so the
// controller retires fast-band entries make before break.
func (s *channelSink) Barrier() error { return s.c.Barrier() }

// StartExchange compiles ctrl's configured policy, brings up the fabric
// side and starts serving BGP on cfg.Listener.
func StartExchange(ctrl *Controller, cfg ExchangeConfig) (*Exchange, error) {
	x := &Exchange{ctrl: ctrl, logf: cfg.Logf}
	if x.logf == nil {
		x.logf = func(string, ...any) {}
	}
	if cfg.Dial != nil {
		model, err := fabric.New(fabricTopology(ctrl, cfg.Topology))
		if err != nil {
			return nil, err
		}
		x.model = model
		ctrl.AddRuleMirror(model)
	}
	if cfg.FlowSampleRate > 0 {
		// Sampled flow export off the controller's table, each flow joined
		// against the route server's Loc-RIB best route.
		sampler := flow.NewSampler(0, ctrl.Metrics())
		ctrl.Switch().Table().SetSampler(sampler, cfg.FlowSampleRate)
		resolver := flow.NewRIBResolver(ctrl.RouteServer(), time.Second, ctrl.Metrics())
		x.ana = flow.NewAnalytics(flow.Config{SampleRate: cfg.FlowSampleRate, TopK: cfg.FlowTopK},
			sampler.Records(), resolver, ctrl.Metrics())
		x.ana.SetLogger(x.logf)
		x.ana.Start()
		x.logf("flow analytics: sampling 1-in-%d, top-%d heavy hitters", cfg.FlowSampleRate, cfg.FlowTopK)
	}
	rep := ctrl.Recompile()
	x.logf("initial compilation: %d groups, %d rules in %v", rep.Groups, rep.Rules, rep.Elapsed)

	ctx, cancel := context.WithCancel(context.Background())
	x.cancel = cancel
	if cfg.Dial != nil {
		x.startFabric(ctx, cfg)
	}
	x.queue = core.NewUpdateQueue(ctrl, core.QueueConfig{})
	x.srv = serveBGP(ctrl, cfg.Listener, cfg.LocalAS, x.queue)
	x.logf("route server listening on %s (AS%d)", x.srv.Addr(), cfg.LocalAS)
	if cfg.OptimizeInterval > 0 {
		x.stopOptimizer = ctrl.StartOptimizer(cfg.OptimizeInterval)
	}
	return x, nil
}

// fabricTopology is topo, or without one a single switch holding every
// physical port ctrl has.
func fabricTopology(ctrl *Controller, topo *fabric.Topology) fabric.Topology {
	if topo != nil {
		return *topo
	}
	one := fabric.Topology{Switches: []string{singleSwitch}, Ports: make(map[PortID]string)}
	for _, port := range ctrl.Switch().PortIDs() {
		one.Ports[port] = singleSwitch
	}
	return one
}

// startFabric builds one channel and reconciler target per model switch
// and the prober, then starts the redialers and the loops.
func (x *Exchange) startFabric(ctx context.Context, cfg ExchangeConfig) {
	names := x.model.Switches()
	targets := make([]reconcile.Target, 0, len(names))
	for i, name := range names {
		ch := &channel{name: name}
		ch.red = &openflow.Redialer{
			Dial:       func(ctx context.Context) (*openflow.Client, error) { return cfg.Dial(ctx, name) },
			OnUp:       func(c *openflow.Client) { x.up(ch, c) },
			OnDown:     func(c *openflow.Client, err error) { x.down(ch, err) },
			MinBackoff: cfg.MinBackoff,
			MaxBackoff: cfg.MaxBackoff,
			Seed:       cfg.Seed + int64(i),
			Logf:       cfg.Logf,
		}
		x.chans = append(x.chans, ch)
		targets = append(targets, x.target(ch))
	}
	x.rec = reconcile.New(reconcile.Config{
		Interval: cfg.ReconcileInterval,
		Registry: x.ctrl.Metrics(),
		Logf:     cfg.Logf,
	}, targets...)

	// Probe every ordered pair of participant ports. A probe enters the
	// switch owning its source port and comes back as a PACKET_IN from
	// the switch that delivered it.
	ports := x.ctrl.Switch().PortIDs()
	var pairs []probe.Pair
	for _, from := range ports {
		for _, to := range ports {
			if from != to {
				pairs = append(pairs, probe.Pair{From: from, To: to})
			}
		}
	}
	x.prb = probe.New(probe.Config{
		Interval: cfg.ProbeInterval,
		Registry: x.ctrl.Metrics(),
		Logf:     cfg.Logf,
	}, x.inject, pairs...)

	for _, ch := range x.chans {
		x.wg.Add(1)
		go func() {
			defer x.wg.Done()
			_ = ch.red.Run(ctx)
		}()
	}
	if cfg.ReconcileInterval > 0 {
		x.rec.Start()
		x.logf("reconciler loop at %v", cfg.ReconcileInterval)
	}
	if cfg.ProbeInterval > 0 && len(pairs) > 0 {
		x.prb.Start()
		x.logf("liveness probing %d port pairs at %v", len(pairs), cfg.ProbeInterval)
	}
	x.registerChannelGauges()
}

// up registers a fresh channel with the controller, which flushes the
// switch and replays the full rule state into it.
func (x *Exchange) up(ch *channel, c *openflow.Client) {
	c.OnPacketIn = x.packetIn(c)
	// The name comes from the model, so the switch exists.
	inner, _ := x.model.SwitchSink(ch.name, openflow.Mirror{C: c})
	sink := &channelSink{gen: &ch.gen, inner: inner, c: c}
	ch.gen.Add(1)
	ch.mu.Lock()
	ch.sink = sink
	ch.mu.Unlock()
	x.ctrl.AddRuleMirror(sink)
	x.logf("control channel to %s up, rule state resynced", ch.name)
}

func (x *Exchange) down(ch *channel, err error) {
	ch.gen.Add(1)
	ch.mu.Lock()
	sink := ch.sink
	ch.sink = nil
	ch.mu.Unlock()
	if sink != nil {
		x.ctrl.RemoveRuleMirror(sink)
	}
	x.logf("control channel to %s down: %v", ch.name, err)
}

// packetIn handles a switch's PACKET_INs: a probe punted from its
// destination port goes to the prober and an ARP request is answered.
// Any other miss is dropped: the trunk band forwards every participant
// MAC, so what is left is addressed to no port.
func (x *Exchange) packetIn(c *openflow.Client) func(pkt.Packet) {
	return func(p pkt.Packet) {
		if to, ok := probe.Destination(p); ok && to == p.InPort {
			x.prb.Deliver(p.InPort, p)
			return
		}
		// A failed PACKET_OUT means the channel died; the reply is
		// dropped like any other miss, and the redialer reconnects.
		if reply, ok := x.ctrl.HandleARP(p); ok {
			_ = c.PacketOut(p.InPort, reply)
		}
	}
}

// target is the reconciler's view of one switch: the intended table from
// the model, the installed one read back over the channel, and the fence.
func (x *Exchange) target(ch *channel) reconcile.Target {
	topo := x.model.Topo()
	return reconcile.Target{
		Name:     ch.name,
		Intended: x.model.Switch(ch.name).Table().Entries,
		Installed: func() ([]*dataplane.FlowEntry, bool) {
			c := ch.red.Client()
			if c == nil {
				return nil, false
			}
			groups, err := c.DumpFlows()
			if err != nil {
				x.logf("reconcile: %s readback failed: %v", ch.name, err)
				return nil, false
			}
			if x.readback != nil {
				x.readback(ch.name)
			}
			return openflow.EntriesFromGroups(groups), true
		},
		Sink: func() reconcile.Sink {
			c := ch.red.Client()
			if c == nil {
				return nil
			}
			return openflow.Mirror{C: c}
		},
		Generation: ch.gen.Load,
		Escalate: func() {
			if s := ch.registered(); s != nil {
				x.ctrl.Resync(s)
			}
		},
		Topo: &topo,
	}
}

// inject offers a probe to the switch owning its source port.
func (x *Exchange) inject(port PortID, p pkt.Packet) bool {
	c := x.Client(x.model.Topo().Ports[port])
	return c != nil && c.Inject(port, p) == nil
}

// registerChannelGauges publishes the live channels' traffic counters,
// summed over switches.
func (x *Exchange) registerChannelGauges() {
	gauge := func(name string, f func(openflow.ChannelStats) uint64) {
		x.ctrl.Metrics().RegisterGaugeFunc(name, func() int64 {
			var n uint64
			for _, ch := range x.chans {
				if c := ch.red.Client(); c != nil {
					n += f(c.ChannelStats())
				}
			}
			return int64(n)
		})
	}
	gauge("openflow.flow_mods", func(s openflow.ChannelStats) uint64 { return s.FlowMods })
	gauge("openflow.packet_outs", func(s openflow.ChannelStats) uint64 { return s.PacketOuts })
	gauge("openflow.packet_ins", func(s openflow.ChannelStats) uint64 { return s.PacketIns })
	gauge("openflow.echoes", func(s openflow.ChannelStats) uint64 { return s.Echoes })
}

func (x *Exchange) channel(name string) *channel {
	for _, ch := range x.chans {
		if ch.name == name {
			return ch
		}
	}
	return nil
}

// Stop shuts the exchange down: the optimizer and the observing loops
// first (a repair must not race the teardown), then the route server (a
// closing exchange records no PeerDowns), the ingestion queue, and last
// the control channels.
func (x *Exchange) Stop() {
	if x.stopOptimizer != nil {
		x.stopOptimizer()
	}
	if x.ana != nil {
		x.ana.Stop()
	}
	if x.prb != nil {
		x.prb.Stop()
	}
	if x.rec != nil {
		x.rec.Stop()
	}
	_ = x.srv.Close()
	x.queue.Stop()
	st := x.queue.Stats()
	x.logf("ingestion queue: %d enqueued, %d coalesced, %d applied over %d drains",
		st.Enqueued, st.Coalesced, st.Applied, st.Drains)
	x.cancel()
	x.wg.Wait()
	for _, ch := range x.chans {
		if s := ch.registered(); s != nil {
			x.ctrl.RemoveRuleMirror(s)
		}
	}
}

// Controller returns the exchange's controller.
func (x *Exchange) Controller() *Controller { return x.ctrl }

// Switches returns the fabric switch names, sorted; none without Dial.
func (x *Exchange) Switches() []string {
	names := make([]string, len(x.chans))
	for i, ch := range x.chans {
		names[i] = ch.name
	}
	return names
}

// Client returns the named switch's live control channel, or nil while
// it is down.
func (x *Exchange) Client(name string) *openflow.Client {
	if ch := x.channel(name); ch != nil {
		return ch.red.Client()
	}
	return nil
}

// Model returns the fabric model, or nil without Dial.
func (x *Exchange) Model() *fabric.Fabric { return x.model }

// Reconciler returns the reconciler, or nil without a fabric.
func (x *Exchange) Reconciler() *reconcile.Reconciler { return x.rec }

// Prober returns the liveness prober, or nil without a fabric.
func (x *Exchange) Prober() *probe.Prober { return x.prb }

// Analytics returns the flow analytics, or nil when sampling is off.
func (x *Exchange) Analytics() *flow.Analytics { return x.ana }
