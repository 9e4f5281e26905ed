// Command sdxd runs an SDX controller daemon: it loads an exchange
// configuration, listens for participant BGP sessions on a TCP endpoint
// (the route-server side of the paper's Figure 3), and periodically runs
// the background optimization pass that folds fast-path rules into the
// minimal tables (§4.3.2).
//
// The configuration is a small line-oriented file:
//
//	# participant <as> <name> <port-id> [port-id...]   ("-" for remote)
//	participant 100 A 1
//	participant 200 B 2 3
//	participant 400 tenant -
//
//	# communities <route-server-as>   (enable IXP community semantics)
//	communities 64512
//
//	# policy <as> in|out <term>
//	#   out terms: fwd <target-as> [dstport N] [srcip CIDR] [dstip CIDR]
//	#   in  terms: port <port-id> [srcip CIDR] [dstport N] ...
//	policy 100 out fwd 200 dstport 80
//	policy 200 in port 3 srcip 128.0.0.0/1
//
// Participants connect with any BGP-4 speaker (two-octet AS numbers) and
// receive VNH-rewritten advertisements, exactly like the in-process
// examples.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"sdx"
	"sdx/internal/dataplane"
	"sdx/internal/flow"
	"sdx/internal/openflow"
	"sdx/internal/probe"
	"sdx/internal/reconcile"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:2179", "BGP listen address")
	localAS := flag.Uint("as", 64512, "route server AS number")
	configPath := flag.String("config", "", "exchange configuration file")
	fabric := flag.String("fabric", "", "optional sdx-switch address to program over the control channel")
	optimize := flag.Duration("optimize-interval", 5*time.Second, "background recompilation interval")
	metricsAddr := flag.String("metrics", "", "HTTP observability address (serves /metrics, /metrics/text, /trace, /health); empty disables")
	reconcileInterval := flag.Duration("reconcile-interval", time.Second, "continuous reconciler period against the external fabric's installed table (0 disables; requires -fabric)")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "dataplane liveness probe period across participant port pairs (0 disables; requires -fabric)")
	flowRate := flag.Int("flow-sample-rate", 1024, "sFlow-style 1-in-N packet sampling rate on the local dataplane (0 disables flow analytics)")
	flowTopK := flag.Int("flow-topk", 16, "heavy-hitter top-k summary size for flow analytics")
	flag.Parse()

	ctrl := sdx.New(sdx.WithLogger(log.Printf))
	var ana *flow.Analytics
	if *flowRate > 0 {
		// Sampled flow export: 1-in-N samples off the local switch's
		// forwarding path into the analytics service, each flow joined
		// against the route server's Loc-RIB best route. Served at /flows.
		sampler := flow.NewSampler(0, ctrl.Metrics())
		ctrl.Switch().Table().SetSampler(sampler, *flowRate)
		resolver := flow.NewRIBResolver(ctrl.RouteServer(), time.Second, ctrl.Metrics())
		ana = flow.NewAnalytics(flow.Config{SampleRate: *flowRate, TopK: *flowTopK},
			sampler.Records(), resolver, ctrl.Metrics())
		ana.SetLogger(log.Printf)
		ana.Start()
		log.Printf("flow analytics: sampling 1-in-%d, top-%d heavy hitters", *flowRate, *flowTopK)
	}
	var ports []sdx.PortID
	if *configPath != "" {
		var err error
		if ports, err = loadConfig(ctrl, *configPath); err != nil {
			log.Fatalf("config: %v", err)
		}
	}
	fabricCtx, fabricStop := context.WithCancel(context.Background())
	defer fabricStop()
	var rec *reconcile.Reconciler
	var prb *probe.Prober
	if *fabric != "" {
		// The control channel is kept alive by a redialer: whenever the
		// channel dies, it reconnects with backoff and resyncs the full
		// rule state (flush + band replay) through AddRuleMirror.
		var gen atomic.Uint64
		red := &openflow.Redialer{
			Dial: func(context.Context) (*openflow.Client, error) {
				return openflow.Dial(*fabric)
			},
			Logf: log.Printf,
		}
		red.OnUp = func(client *openflow.Client) {
			// Remote table misses: deliver liveness probes that reached
			// their destination port, answer ARP (VNH resolution), and
			// fall back to normal L2 delivery via PACKET_OUT.
			client.OnPacketIn = func(p sdx.Packet) {
				if to, ok := probe.Destination(p); ok && to == p.InPort {
					// The switch punted a probe delivered on its
					// destination port: the forwarding path works.
					prb.Deliver(p.InPort, p)
					return
				}
				// PACKET_OUT failures mean the control channel died; the
				// packet is dropped like any other table miss, and the
				// channel's Done() is the reconnect signal. A probe that
				// missed the tables rides the same normal-egress relay as
				// any other packet.
				if reply, ok := ctrl.HandleARP(p); ok {
					_ = client.PacketOut(p.InPort, reply)
					return
				}
				if egress, ok := ctrl.NormalEgress(p); ok {
					_ = client.PacketOut(egress, p)
				}
			}
			gen.Add(1)
			ctrl.AddRuleMirror(openflow.Mirror{C: client})
			log.Printf("fabric channel up, rule state resynced")
		}
		red.OnDown = func(client *openflow.Client, err error) {
			gen.Add(1)
			ctrl.RemoveRuleMirror(openflow.Mirror{C: client})
			log.Printf("fabric channel down: %v", err)
		}

		// Continuous reconciler: read the installed table back over the
		// control channel (DumpFlows), diff against the intended table,
		// repair minimally, escalate to flush-and-replay on persistent
		// drift. The generation counter fences repairs across reconnects.
		rec = reconcile.New(reconcile.Config{
			Interval: *reconcileInterval,
			Registry: ctrl.Metrics(),
			Logf:     log.Printf,
		}, reconcile.Target{
			Name:     "fabric",
			Intended: func() []*dataplane.FlowEntry { return ctrl.Switch().Table().Entries() },
			Installed: func() ([]*dataplane.FlowEntry, bool) {
				c := red.Client()
				if c == nil {
					return nil, false
				}
				groups, err := c.DumpFlows()
				if err != nil {
					return nil, false
				}
				return openflow.EntriesFromGroups(groups), true
			},
			Sink: func() reconcile.Sink {
				c := red.Client()
				if c == nil {
					return nil
				}
				return openflow.Mirror{C: c}
			},
			Generation: gen.Load,
			Escalate: func() {
				if c := red.Client(); c != nil {
					ctrl.Resync(openflow.Mirror{C: c})
				}
			},
		})

		// Dataplane liveness prober: inject probes into the remote
		// pipeline between every ordered pair of configured participant
		// ports; the switch punts delivered probes back as PacketIns.
		var pairs []probe.Pair
		for _, from := range ports {
			for _, to := range ports {
				if from != to {
					pairs = append(pairs, probe.Pair{From: from, To: to})
				}
			}
		}
		prb = probe.New(probe.Config{
			Interval: *probeInterval,
			Registry: ctrl.Metrics(),
			Logf:     log.Printf,
		}, func(port sdx.PortID, p sdx.Packet) bool {
			c := red.Client()
			if c == nil {
				return false
			}
			return c.Inject(port, p) == nil
		}, pairs...)

		go func() { _ = red.Run(fabricCtx) }()
		if *reconcileInterval > 0 {
			rec.Start()
			log.Printf("reconciler loop at %v", *reconcileInterval)
		}
		if *probeInterval > 0 && len(pairs) > 0 {
			prb.Start()
			log.Printf("liveness probing %d port pairs at %v", len(pairs), *probeInterval)
		}
		stats := func(f func(openflow.ChannelStats) uint64) func() int64 {
			return func() int64 {
				c := red.Client()
				if c == nil {
					return 0
				}
				return int64(f(c.ChannelStats()))
			}
		}
		reg := ctrl.Metrics()
		reg.RegisterGaugeFunc("openflow.flow_mods",
			stats(func(s openflow.ChannelStats) uint64 { return s.FlowMods }))
		reg.RegisterGaugeFunc("openflow.packet_outs",
			stats(func(s openflow.ChannelStats) uint64 { return s.PacketOuts }))
		reg.RegisterGaugeFunc("openflow.packet_ins",
			stats(func(s openflow.ChannelStats) uint64 { return s.PacketIns }))
		reg.RegisterGaugeFunc("openflow.echoes",
			stats(func(s openflow.ChannelStats) uint64 { return s.Echoes }))
		log.Printf("programming external fabric at %s", *fabric)
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("metrics: %v", err)
		}
		go func() {
			// Serve exits when the listener closes at process shutdown.
			_ = http.Serve(ln, newMetricsMux(ctrl, rec, prb, ana))
		}()
		log.Printf("metrics at http://%s/metrics", ln.Addr())
	}
	rep := ctrl.Recompile()
	log.Printf("initial compilation: %d groups, %d rules in %v", rep.Groups, rep.Rules, rep.Elapsed)

	srv, err := sdx.ListenBGP(ctrl, *listen, uint32(*localAS))
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("route server listening on %s (AS%d)", srv.Addr(), *localAS)

	queue := sdx.NewUpdateQueue(ctrl, sdx.QueueConfig{})
	srv.UseIngestQueue(queue)

	// Background optimizer: recompile between update bursts (§4.3.2).
	stopOptimizer := ctrl.StartOptimizer(*optimize)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Printf("shutting down")
	stopOptimizer()
	if ana != nil {
		ana.Stop()
	}
	if prb != nil {
		prb.Stop()
	}
	if rec != nil {
		rec.Stop()
	}
	srv.Close()
	queue.Stop()
	st := queue.Stats()
	log.Printf("ingestion queue: %d enqueued, %d coalesced, %d applied over %d drains",
		st.Enqueued, st.Coalesced, st.Applied, st.Drains)
	fabricStop()
}

// loadConfig installs the configuration into ctrl and returns the
// physical participant ports it declared, in file order — the port set
// the liveness prober pairs up.
func loadConfig(ctrl *sdx.Controller, path string) ([]sdx.PortID, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ports []sdx.PortID

	type policyLine struct {
		as      uint32
		inbound bool
		term    sdx.Term
	}
	var policies []policyLine

	sc := bufio.NewScanner(f)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		fail := func(format string, args ...any) ([]sdx.PortID, error) {
			return nil, fmt.Errorf("%s:%d: %s", path, lineno, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "communities":
			if len(fields) != 2 {
				return fail("communities needs <route-server-as>")
			}
			as, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil || as == 0 {
				return fail("bad route-server AS %q", fields[1])
			}
			ctrl.EnableCommunities(uint32(as))
		case "participant":
			if len(fields) < 4 {
				return fail("participant needs <as> <name> <ports...>")
			}
			as, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return fail("bad AS %q", fields[1])
			}
			cfg := sdx.ParticipantConfig{AS: uint32(as), Name: fields[2]}
			if fields[3] != "-" {
				for _, pf := range fields[3:] {
					id, err := strconv.ParseUint(pf, 10, 32)
					if err != nil {
						return fail("bad port %q", pf)
					}
					cfg.Ports = append(cfg.Ports, sdx.PhysicalPort{ID: sdx.PortID(id)})
					ports = append(ports, sdx.PortID(id))
				}
			}
			if _, err := ctrl.AddParticipant(cfg); err != nil {
				return fail("%v", err)
			}
		case "policy":
			if len(fields) < 4 {
				return fail("policy needs <as> in|out <term>")
			}
			as, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return fail("bad AS %q", fields[1])
			}
			inbound := fields[2] == "in"
			term, err := parseTerm(fields[3:], inbound)
			if err != nil {
				return fail("%v", err)
			}
			policies = append(policies, policyLine{uint32(as), inbound, term})
		default:
			return fail("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	// Group policy lines per participant and install.
	byAS := map[uint32]*struct{ in, out []sdx.Term }{}
	for _, p := range policies {
		e := byAS[p.as]
		if e == nil {
			e = &struct{ in, out []sdx.Term }{}
			byAS[p.as] = e
		}
		if p.inbound {
			e.in = append(e.in, p.term)
		} else {
			e.out = append(e.out, p.term)
		}
	}
	for as, e := range byAS {
		if err := ctrl.SetPolicy(as, e.in, e.out); err != nil {
			return nil, fmt.Errorf("%s: policy for AS%d: %w", path, as, err)
		}
	}
	return ports, nil
}

func parseTerm(fields []string, inbound bool) (sdx.Term, error) {
	var term sdx.Term
	if len(fields) == 0 {
		return term, fmt.Errorf("empty term")
	}
	var rest []string
	switch fields[0] {
	case "fwd":
		if inbound {
			return term, fmt.Errorf("fwd is an outbound action")
		}
		if len(fields) < 2 {
			return term, fmt.Errorf("fwd needs a target AS")
		}
		as, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return term, fmt.Errorf("bad target AS %q", fields[1])
		}
		term.Action.ToParticipant = uint32(as)
		rest = fields[2:]
	case "port":
		if !inbound {
			return term, fmt.Errorf("port is an inbound action")
		}
		if len(fields) < 2 {
			return term, fmt.Errorf("port needs a port id")
		}
		id, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return term, fmt.Errorf("bad port %q", fields[1])
		}
		term.Action.ToPort = sdx.PortID(id)
		rest = fields[2:]
	case "drop":
		term.Action.Drop = true
		rest = fields[1:]
	default:
		return term, fmt.Errorf("unknown action %q", fields[0])
	}

	m := sdx.MatchAll
	for len(rest) > 0 {
		if len(rest) < 2 {
			return term, fmt.Errorf("dangling match field %q", rest[0])
		}
		key, val := rest[0], rest[1]
		switch key {
		case "dstport":
			n, err := strconv.ParseUint(val, 10, 16)
			if err != nil {
				return term, fmt.Errorf("bad dstport %q", val)
			}
			m = m.DstPort(uint16(n))
		case "srcport":
			n, err := strconv.ParseUint(val, 10, 16)
			if err != nil {
				return term, fmt.Errorf("bad srcport %q", val)
			}
			m = m.SrcPort(uint16(n))
		case "srcip":
			p, err := sdx.ParsePrefix(val)
			if err != nil {
				return term, err
			}
			m = m.SrcIP(p)
		case "dstip":
			p, err := sdx.ParsePrefix(val)
			if err != nil {
				return term, err
			}
			m = m.DstIP(p)
		case "proto":
			n, err := strconv.ParseUint(val, 10, 8)
			if err != nil {
				return term, fmt.Errorf("bad proto %q", val)
			}
			m = m.Proto(uint8(n))
		default:
			return term, fmt.Errorf("unknown match field %q", key)
		}
		rest = rest[2:]
	}
	term.Match = m
	return term, nil
}
