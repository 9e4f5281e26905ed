// Loadbalance replays the paper's second deployment experiment (§5.2,
// Figures 4b and 5b): an AWS tenant without any physical presence at the
// exchange announces an anycast service prefix through the SDX and, at
// t=246s, installs a wide-area load-balancing policy that rewrites the
// destination of requests from one client prefix to a second instance.
package main

import (
	"flag"
	"fmt"
	"log"

	"sdx"
	"sdx/internal/core"
	"sdx/internal/pkt"
	"sdx/internal/router"
	"sdx/internal/trafficgen"
)

func main() {
	steps := flag.Int("steps", 600, "experiment length in simulated seconds")
	policyAt := flag.Int("policy-at", 246, "load-balance policy installation time (s)")
	flag.Parse()

	x := sdx.New()
	for _, cfg := range []sdx.ParticipantConfig{
		{AS: 100, Name: "A", Ports: []sdx.PhysicalPort{{ID: 1}}}, // client side
		{AS: 200, Name: "B", Ports: []sdx.PhysicalPort{{ID: 2}}}, // toward AWS
		{AS: 400, Name: "tenant"},                                // remote participant
	} {
		if _, err := x.AddParticipant(cfg); err != nil {
			log.Fatal(err)
		}
	}
	attach := func(as uint32, port sdx.PortID) *router.BorderRouter {
		r, err := router.Attach(x, as, core.PhysicalPort{ID: port})
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	a, b := attach(100, 1), attach(200, 2)

	// B carries the paths toward both AWS instances.
	b.Announce(sdx.MustParsePrefix("184.72.255.0/24"), 200, 16509) // instance 1
	b.Announce(sdx.MustParsePrefix("184.73.177.0/24"), 200, 16509) // instance 2

	// The tenant announces the anycast service prefix through the SDX
	// and initially steers everything to instance 1.
	anycast := sdx.MustParsePrefix("74.125.1.0/24")
	service := sdx.MustParseAddr("74.125.1.1")
	inst1 := sdx.MustParseAddr("184.72.255.10")
	inst2 := sdx.MustParseAddr("184.73.177.10")
	// With no port at the exchange, the tenant's AS number stands in as
	// the originated route's next hop (§3.2).
	x.ApplyBatch(sdx.PeerUpdate{From: 400, Update: &sdx.Update{
		Attrs: &sdx.PathAttrs{ASPath: []uint32{400}, NextHop: sdx.Addr(400)},
		NLRI:  []sdx.Prefix{anycast},
	}})
	// Policy terms are disjoint by construction (Pyretic's + applies every
	// matching term, so overlapping rewrites would multicast).
	srv := sdx.MatchAll.DstIP(sdx.MustParsePrefix("74.125.1.1/32"))
	setTenantPolicy := func(balanced bool) {
		var terms []sdx.Term
		if balanced {
			// The paper's policy: the 204.57.0.0/24 clients move to #2.
			terms = []sdx.Term{
				sdx.RewriteTerm(srv.SrcIP(sdx.MustParsePrefix("204.57.0.0/24")),
					sdx.NoMods.SetDstIP(inst2)),
				sdx.RewriteTerm(srv.SrcIP(sdx.MustParsePrefix("198.51.100.0/24")),
					sdx.NoMods.SetDstIP(inst1)),
			}
		} else {
			terms = []sdx.Term{
				sdx.RewriteTerm(srv.SrcIP(sdx.MustParsePrefix("204.57.0.0/24")),
					sdx.NoMods.SetDstIP(inst1)),
				sdx.RewriteTerm(srv.SrcIP(sdx.MustParsePrefix("198.51.100.0/24")),
					sdx.NoMods.SetDstIP(inst1)),
			}
		}
		if rep := x.Recompile(sdx.CompilePolicy(400, terms, nil)); rep.Err != nil {
			log.Fatal(rep.Err)
		}
	}
	setTenantPolicy(false)

	// Two clients behind A, three 1 Mbps flows total.
	exp := trafficgen.New()
	for i, src := range []string{"204.57.0.67", "198.51.100.68", "198.51.100.69"} {
		exp.AddFlow(trafficgen.Flow{
			From: a, Src: sdx.MustParseAddr(src), Dst: service,
			SrcPort: uint16(50000 + i), DstPort: 80, RateMbps: 1,
		})
	}
	exp.WatchRouter("instance-1", b, func(p pkt.Packet) bool { return p.DstIP == inst1 })
	exp.WatchRouter("instance-2", b, func(p pkt.Packet) bool { return p.DstIP == inst2 })

	exp.At(*policyAt, func() {
		fmt.Printf("t=%4ds  tenant installs the wide-area load-balance policy\n", *policyAt)
		setTenantPolicy(true)
	})

	res := exp.Run(*steps)

	fmt.Printf("\n%6s %12s %12s\n", "t(s)", "instance-1", "instance-2")
	for t := 0; t < *steps; t += 30 {
		fmt.Printf("%6d %9.2f Mb %9.2f Mb\n", t, res.Series["instance-1"][t], res.Series["instance-2"][t])
	}
	fmt.Println("\nExpected shape (paper Fig 5b): all 3 Mbps to instance #1 until")
	fmt.Println("the policy installs, then 1 Mbps (the 204.57.0.0/24 client) moves")
	fmt.Println("to instance #2 — destination rewriting in the exchange fabric.")
}
