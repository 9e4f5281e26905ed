package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/rs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden classifier dumps")

// goldenTopologies are fixed, hand-built exchanges whose compiled
// classifiers are pinned under testdata/. Any drift in rule order, rule
// priorities, VNH/VMAC assignment, or group structure fails these tests:
// the compiler's output is part of the repo's compatibility surface (the
// fabric switch sees exactly these rules), so changes must be deliberate
// and show up in review as a golden-file diff.
var goldenTopologies = []struct {
	name  string
	build func(t *testing.T) *core.Controller
}{
	{"fig1", buildFig1Exchange},
	{"mixed", buildMixedExchange},
}

// buildFig1Exchange reproduces the paper's running example (Fig 1):
// participant A with application-specific peering — web traffic to B,
// HTTPS to C — while B and C announce overlapping prefixes and C steers
// inbound traffic across its two ports by destination port.
func buildFig1Exchange(t *testing.T) *core.Controller {
	t.Helper()
	ctrl := core.NewController()
	add := func(as uint32, name string, ports ...pkt.PortID) {
		cfg := core.ParticipantConfig{AS: as, Name: name}
		for _, p := range ports {
			cfg.Ports = append(cfg.Ports, core.PhysicalPort{ID: p})
		}
		if _, err := ctrl.AddParticipant(cfg); err != nil {
			t.Fatal(err)
		}
	}
	add(100, "A", 1)
	add(200, "B", 2)
	add(300, "C", 3, 4)

	announce := func(as uint32, nh pkt.PortID, path []uint32, prefixes ...string) {
		nlri := make([]iputil.Prefix, len(prefixes))
		for i, s := range prefixes {
			nlri[i] = mustPrefix(t, s)
		}
		ctrl.ApplyBatch(rs.PeerUpdate{From: as, Update: &bgp.Update{
			Attrs: &bgp.PathAttrs{ASPath: path, NextHop: core.PortIP(nh)},
			NLRI:  nlri,
		}})
	}
	// B and C both reach p1 and p2; only C reaches p3 (Fig 1's table).
	announce(200, 2, []uint32{200, 900}, "40.0.1.0/24", "40.0.2.0/24")
	announce(300, 3, []uint32{300, 901}, "40.0.1.0/24", "40.0.2.0/24", "40.0.3.0/24")

	set := func(as uint32, in, out []core.Term) {
		if err := ctrl.SetPolicy(as, in, out); err != nil {
			t.Fatal(err)
		}
	}
	set(100, nil, []core.Term{
		core.Fwd(pkt.MatchAll.DstPort(80), 200),
		core.Fwd(pkt.MatchAll.DstPort(443), 300),
	})
	set(300, []core.Term{
		core.FwdPort(pkt.MatchAll.DstPort(80), 3),
		core.FwdPort(pkt.MatchAll.DstPort(4321), 4),
		core.FwdPort(pkt.MatchAll.DstPort(4322), 4),
	}, nil)
	return ctrl
}

// buildMixedExchange exercises the compiler features beyond the Fig 1
// happy path in one topology: a remote participant (no ports), middlebox
// redirection that bypasses the BGP-consistency check, a drop term, an
// export policy, route-server communities (no-export-to and whitelist),
// MED and origin diversity, and a header-rewrite (deliver-by-BGP) term.
func buildMixedExchange(t *testing.T) *core.Controller {
	t.Helper()
	ctrl := core.NewController()
	ctrl.EnableCommunities(65534)

	add := func(cfg core.ParticipantConfig) {
		if _, err := ctrl.AddParticipant(cfg); err != nil {
			t.Fatal(err)
		}
	}
	add(core.ParticipantConfig{AS: 10, Name: "content", Ports: []core.PhysicalPort{{ID: 1}, {ID: 2}}})
	add(core.ParticipantConfig{AS: 20, Name: "eyeball", Ports: []core.PhysicalPort{{ID: 3}},
		Export: &rs.ExportPolicy{DenyAllTo: map[uint32]bool{40: true}}})
	add(core.ParticipantConfig{AS: 30, Name: "transit", Ports: []core.PhysicalPort{{ID: 4}, {ID: 5}}})
	add(core.ParticipantConfig{AS: 40, Name: "middlebox", Ports: []core.PhysicalPort{{ID: 6}}})
	add(core.ParticipantConfig{AS: 50, Name: "remote"}) // no fabric ports

	announce := func(as uint32, nh pkt.PortID, attrs bgp.PathAttrs, prefixes ...string) {
		nlri := make([]iputil.Prefix, len(prefixes))
		for i, s := range prefixes {
			nlri[i] = mustPrefix(t, s)
		}
		a := attrs
		a.NextHop = core.PortIP(nh)
		ctrl.ApplyBatch(rs.PeerUpdate{From: as, Update: &bgp.Update{Attrs: &a, NLRI: nlri}})
	}
	// Same prefix from 20 and 30 with a MED tie-break (same neighbor AS
	// via path [x, 900]) plus an origin difference on a second prefix.
	announce(20, 3, bgp.PathAttrs{ASPath: []uint32{900}, MED: 10, HasMED: true}, "50.0.1.0/24")
	announce(30, 4, bgp.PathAttrs{ASPath: []uint32{900}, MED: 5, HasMED: true}, "50.0.1.0/24")
	announce(20, 3, bgp.PathAttrs{ASPath: []uint32{20, 901}, Origin: bgp.OriginIGP}, "50.0.2.0/24")
	announce(30, 4, bgp.PathAttrs{ASPath: []uint32{30, 902}, Origin: bgp.OriginEGP}, "50.0.2.0/24")
	// Community-scoped announcements: 50.0.3.0/24 must not reach AS 30
	// (0, 30); 50.0.4.0/24 is whitelisted to AS 10 only (65534, 10).
	announce(20, 3, bgp.PathAttrs{ASPath: []uint32{20}, Communities: []uint32{0<<16 | 30}}, "50.0.3.0/24")
	announce(20, 3, bgp.PathAttrs{ASPath: []uint32{20}, Communities: []uint32{65534<<16 | 10}}, "50.0.4.0/24")
	// The remote participant announces a prefix reachable via BGP only.
	announce(50, 3, bgp.PathAttrs{ASPath: []uint32{50, 903}}, "50.0.5.0/24")

	set := func(as uint32, in, out []core.Term) {
		if err := ctrl.SetPolicy(as, in, out); err != nil {
			t.Fatal(err)
		}
	}
	set(10, []core.Term{
		core.FwdPort(pkt.MatchAll.DstPort(80), 1),
		core.FwdPort(pkt.MatchAll.DstPort(443), 2),
	}, []core.Term{
		core.Fwd(pkt.MatchAll.DstPort(80), 20),
		core.FwdMiddlebox(pkt.MatchAll.DstPort(8080), 40),
		core.DropTerm(pkt.MatchAll.Proto(pkt.ProtoUDP).DstPort(53)),
	})
	set(20, nil, []core.Term{
		core.Fwd(pkt.MatchAll.Proto(pkt.ProtoTCP), 30),
	})
	set(30, []core.Term{
		core.FwdPort(pkt.MatchAll.SrcPort(1024), 5),
		core.RewriteTerm(pkt.MatchAll.DstPort(7000), pkt.NoMods.SetDstIP(mustAddr(t, "50.0.1.9"))),
	}, nil)
	return ctrl
}

func mustPrefix(t *testing.T, s string) iputil.Prefix {
	t.Helper()
	p, err := iputil.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustAddr(t *testing.T, s string) iputil.Addr {
	t.Helper()
	a, err := iputil.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestGoldenClassifiers compiles each fixed topology and requires its
// canonical dump to match the pinned golden file exactly. Run with
// -update to rewrite the files after a deliberate compiler change.
func TestGoldenClassifiers(t *testing.T) {
	for _, tc := range goldenTopologies {
		t.Run(tc.name, func(t *testing.T) {
			ctrl := tc.build(t)
			ctrl.Recompile()
			got := ctrl.Compiled().Canonical()

			path := filepath.Join("testdata", "golden_"+tc.name+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run go test ./internal/core -run TestGoldenClassifiers -update): %v", err)
			}
			if got != string(want) {
				t.Fatalf("compiled classifiers drifted from %s:\n%s\nIf the change is deliberate, rerun with -update and review the diff.",
					path, firstDiff(string(want), got))
			}
		})
	}
}

func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("line count: want %d, got %d", len(w), len(g))
}
