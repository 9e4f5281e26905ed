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
//
// With -fabric, the daemon programs one switch holding every participant
// port of the configuration, as a one-switch fabric: the policy bands
// plus a static trunk band that forwards traffic no policy touches by
// destination MAC. Only ARP requests and liveness probes come back to the
// controller as PACKET_INs.
//
// The daemon is flag parsing and configuration loading around one
// sdx.Exchange, the same assembly the chaos harnesses test.
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
	"syscall"
	"time"

	"sdx"
	"sdx/internal/openflow"
)

func main() {
	d, err := start(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	d.stop()
}

// daemon is a running sdxd: the exchange and its observability endpoint.
type daemon struct {
	x       *sdx.Exchange
	bgp     net.Addr
	metrics net.Listener // nil without -metrics
}

// start parses the command line, loads the configuration and starts the
// exchange.
func start(args []string) (*daemon, error) {
	fs := flag.NewFlagSet("sdxd", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:2179", "BGP listen address")
	localAS := fs.Uint("as", 64512, "route server AS number")
	configPath := fs.String("config", "", "exchange configuration file")
	fabric := fs.String("fabric", "", "optional sdx-switch address to program over the control channel")
	optimize := fs.Duration("optimize-interval", 5*time.Second, "background recompilation interval")
	metricsAddr := fs.String("metrics", "", "HTTP observability address (serves /metrics, /metrics/text, /trace, /health); empty disables")
	reconcileInterval := fs.Duration("reconcile-interval", time.Second, "continuous reconciler period against the external fabric's installed table (0 disables; requires -fabric)")
	probeInterval := fs.Duration("probe-interval", 500*time.Millisecond, "dataplane liveness probe period across participant port pairs (0 disables; requires -fabric)")
	flowRate := fs.Int("flow-sample-rate", 1024, "sFlow-style 1-in-N packet sampling rate on the local dataplane (0 disables flow analytics)")
	flowTopK := fs.Int("flow-topk", 16, "heavy-hitter top-k summary size for flow analytics")
	// ExitOnError: a bad command line exits 2 inside Parse, as flag.Parse does.
	_ = fs.Parse(args)

	ctrl := sdx.New(sdx.WithLogger(log.Printf))
	if *configPath != "" {
		if err := loadConfig(ctrl, *configPath); err != nil {
			return nil, fmt.Errorf("config: %w", err)
		}
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	cfg := sdx.ExchangeConfig{
		Listener:          ln,
		LocalAS:           uint32(*localAS),
		Logf:              log.Printf,
		OptimizeInterval:  *optimize,
		ReconcileInterval: *reconcileInterval,
		ProbeInterval:     *probeInterval,
		FlowSampleRate:    *flowRate,
		FlowTopK:          *flowTopK,
	}
	if addr := *fabric; addr != "" {
		cfg.Dial = func(context.Context, string) (*openflow.Client, error) { return openflow.Dial(addr) }
		log.Printf("programming external fabric at %s", addr)
	}
	x, err := sdx.StartExchange(ctrl, cfg)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	d := &daemon{x: x, bgp: ln.Addr()}
	if *metricsAddr != "" {
		if d.metrics, err = net.Listen("tcp", *metricsAddr); err != nil {
			x.Stop()
			return nil, fmt.Errorf("metrics: %w", err)
		}
		mux := newMetricsMux(ctrl, x.Reconciler(), x.Prober(), x.Analytics())
		go func() {
			// Serve exits when stop closes the listener.
			_ = http.Serve(d.metrics, mux)
		}()
		log.Printf("metrics at http://%s/metrics", d.metrics.Addr())
	}
	return d, nil
}

func (d *daemon) stop() {
	log.Printf("shutting down")
	d.x.Stop()
	if d.metrics != nil {
		_ = d.metrics.Close()
	}
}

// loadConfig installs the configuration into ctrl.
func loadConfig(ctrl *sdx.Controller, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

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
		fail := func(format string, args ...any) error {
			return fmt.Errorf("%s:%d: %s", path, lineno, fmt.Sprintf(format, args...))
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
			if fields[2] != "in" && fields[2] != "out" {
				return fail("policy direction %q is neither in nor out", fields[2])
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
		return err
	}

	// Group policy lines per participant and install them in the order
	// each AS first appears, so an invalid policy is reported the same
	// way on every run.
	type terms struct{ in, out []sdx.Term }
	var order []uint32
	byAS := map[uint32]*terms{}
	for _, p := range policies {
		e := byAS[p.as]
		if e == nil {
			e = &terms{}
			byAS[p.as] = e
			order = append(order, p.as)
		}
		if p.inbound {
			e.in = append(e.in, p.term)
		} else {
			e.out = append(e.out, p.term)
		}
	}
	for _, as := range order {
		if err := ctrl.SetPolicy(as, byAS[as].in, byAS[as].out); err != nil {
			return fmt.Errorf("%s: policy for AS%d: %w", path, as, err)
		}
	}
	return nil
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
