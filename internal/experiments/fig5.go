package experiments

import (
	"fmt"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/router"
	"sdx/internal/rs"
	"sdx/internal/trafficgen"
)

// Fig5Series is one deployment-experiment result: named Mbps series
// sampled once per simulated second.
type Fig5Series struct {
	Names  []string
	Series map[string][]float64
	Events map[int]string // step -> description
}

// Fig5a replays the application-specific peering deployment (§5.2,
// Figure 5a): the client AS's port-80 traffic shifts to AS B when the
// policy installs at policyAt and back to AS A when B withdraws its route
// at withdrawAt.
func Fig5a(steps, policyAt, withdrawAt int) (*Fig5Series, error) {
	ctrl := core.NewController()
	for _, cfg := range []core.ParticipantConfig{
		{AS: 100, Name: "A", Ports: []core.PhysicalPort{{ID: 1}}},
		{AS: 200, Name: "B", Ports: []core.PhysicalPort{{ID: 2}}},
		{AS: 300, Name: "C", Ports: []core.PhysicalPort{{ID: 3}}},
	} {
		if _, err := ctrl.AddParticipant(cfg); err != nil {
			return nil, err
		}
	}
	a, err := router.Attach(ctrl, 100, core.PhysicalPort{ID: 1})
	if err != nil {
		return nil, err
	}
	b, err := router.Attach(ctrl, 200, core.PhysicalPort{ID: 2})
	if err != nil {
		return nil, err
	}
	c, err := router.Attach(ctrl, 300, core.PhysicalPort{ID: 3})
	if err != nil {
		return nil, err
	}

	aws := iputil.MustParsePrefix("74.125.0.0/16")
	a.Announce(aws, 100, 16509)
	b.Announce(aws, 200, 701, 16509)
	ctrl.Recompile()

	exp := trafficgen.New()
	for i, dstPort := range []uint16{80, 5001, 5002} {
		exp.AddFlow(trafficgen.Flow{
			From: c, Src: iputil.MustParseAddr("41.0.1.10"),
			Dst:     iputil.MustParseAddr("74.125.1.50"),
			SrcPort: uint16(50000 + i), DstPort: dstPort, RateMbps: 1,
		})
	}
	exp.WatchRouter("via-AS-A", a, nil)
	exp.WatchRouter("via-AS-B", b, nil)
	exp.At(policyAt, func() {
		ctrl.Recompile(core.CompilePolicy(300, nil, []core.Term{
			core.Fwd(pkt.MatchAll.DstPort(80), 200),
		}))
	})
	exp.At(withdrawAt, func() { b.Withdraw(aws) })

	res := exp.Run(steps)
	return &Fig5Series{
		Names:  []string{"via-AS-A", "via-AS-B"},
		Series: res.Series,
		Events: map[int]string{
			policyAt:   "application-specific peering policy",
			withdrawAt: "route withdrawal",
		},
	}, nil
}

// Fig5b replays the wide-area load-balance deployment (§5.2, Figure 5b):
// at policyAt the remote tenant's rewrite policy moves one client
// prefix's traffic from instance 1 to instance 2.
func Fig5b(steps, policyAt int) (*Fig5Series, error) {
	ctrl := core.NewController()
	for _, cfg := range []core.ParticipantConfig{
		{AS: 100, Name: "A", Ports: []core.PhysicalPort{{ID: 1}}},
		{AS: 200, Name: "B", Ports: []core.PhysicalPort{{ID: 2}}},
		{AS: 400, Name: "tenant"},
	} {
		if _, err := ctrl.AddParticipant(cfg); err != nil {
			return nil, err
		}
	}
	a, err := router.Attach(ctrl, 100, core.PhysicalPort{ID: 1})
	if err != nil {
		return nil, err
	}
	b, err := router.Attach(ctrl, 200, core.PhysicalPort{ID: 2})
	if err != nil {
		return nil, err
	}

	b.Announce(iputil.MustParsePrefix("184.72.255.0/24"), 200, 16509)
	b.Announce(iputil.MustParsePrefix("184.73.177.0/24"), 200, 16509)
	inst1 := iputil.MustParseAddr("184.72.255.10")
	inst2 := iputil.MustParseAddr("184.73.177.10")
	// The tenant originates its service prefix through the SDX (§3.2);
	// with no port at the exchange, its AS number stands in as next hop.
	ctrl.ApplyBatch(rs.PeerUpdate{From: 400, Update: &bgp.Update{
		Attrs: &bgp.PathAttrs{ASPath: []uint32{400}, NextHop: iputil.Addr(400)},
		NLRI:  []iputil.Prefix{iputil.MustParsePrefix("74.125.1.0/24")},
	}})
	srv := pkt.MatchAll.DstIP(iputil.MustParsePrefix("74.125.1.1/32"))
	setPolicy := func(balanced bool) error {
		to1, to2 := inst1, inst1
		if balanced {
			to2 = inst2
		}
		rep := ctrl.Recompile(core.CompilePolicy(400, []core.Term{
			core.RewriteTerm(srv.SrcIP(iputil.MustParsePrefix("204.57.0.0/24")), pkt.NoMods.SetDstIP(to2)),
			core.RewriteTerm(srv.SrcIP(iputil.MustParsePrefix("198.51.100.0/24")), pkt.NoMods.SetDstIP(to1)),
		}, nil))
		return rep.Err
	}
	if err := setPolicy(false); err != nil {
		return nil, err
	}

	exp := trafficgen.New()
	for i, src := range []string{"204.57.0.67", "198.51.100.68", "198.51.100.69"} {
		exp.AddFlow(trafficgen.Flow{
			From: a, Src: iputil.MustParseAddr(src),
			Dst:     iputil.MustParseAddr("74.125.1.1"),
			SrcPort: uint16(50000 + i), DstPort: 80, RateMbps: 1,
		})
	}
	exp.WatchRouter("instance-1", b, func(p pkt.Packet) bool { return p.DstIP == inst1 })
	exp.WatchRouter("instance-2", b, func(p pkt.Packet) bool { return p.DstIP == inst2 })
	exp.At(policyAt, func() { setPolicy(true) })

	res := exp.Run(steps)
	return &Fig5Series{
		Names:  []string{"instance-1", "instance-2"},
		Series: res.Series,
		Events: map[int]string{policyAt: "wide-area load-balance policy"},
	}, nil
}

// CheckFig5a verifies the paper's qualitative shape on a Fig5a result.
func (s *Fig5Series) CheckFig5a(policyAt, withdrawAt int) error {
	viaA, viaB := s.Series["via-AS-A"], s.Series["via-AS-B"]
	probe := func(name string, xs []float64, at int, want float64) error {
		if at >= len(xs) {
			return fmt.Errorf("series too short")
		}
		if diff := xs[at] - want; diff > 0.5 || diff < -0.5 {
			return fmt.Errorf("%s[%d] = %.2f, want ~%.2f", name, at, xs[at], want)
		}
		return nil
	}
	for _, c := range []error{
		probe("via-AS-A", viaA, policyAt-1, 3),
		probe("via-AS-B", viaB, policyAt-1, 0),
		probe("via-AS-A", viaA, withdrawAt-1, 2),
		probe("via-AS-B", viaB, withdrawAt-1, 1),
		probe("via-AS-A", viaA, withdrawAt+1, 3),
		probe("via-AS-B", viaB, withdrawAt+1, 0),
	} {
		if c != nil {
			return c
		}
	}
	return nil
}

// CheckFig5b verifies the paper's qualitative shape on a Fig5b result.
func (s *Fig5Series) CheckFig5b(policyAt int) error {
	i1, i2 := s.Series["instance-1"], s.Series["instance-2"]
	last := len(i1) - 1
	if i1[policyAt-1] < 2.5 || i2[policyAt-1] > 0.5 {
		return fmt.Errorf("before policy: inst1=%.2f inst2=%.2f", i1[policyAt-1], i2[policyAt-1])
	}
	if i1[last] > 2.5 || i2[last] < 0.5 {
		return fmt.Errorf("after policy: inst1=%.2f inst2=%.2f", i1[last], i2[last])
	}
	return nil
}
