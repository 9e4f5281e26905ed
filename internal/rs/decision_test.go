package rs

import (
	"testing"

	"sdx/internal/bgp"
	"sdx/internal/iputil"
)

// announceAttrs announces one prefix with full attribute control, so the
// decision tie-breaks below can pin each RFC 4271 §9.1 step in turn.
func announceAttrs(prefix string, attrs bgp.PathAttrs) *bgp.Update {
	return &bgp.Update{Attrs: &attrs, NLRI: []iputil.Prefix{pfx(prefix)}}
}

// TestDecisionMEDSameNeighbor: MED is compared between routes whose paths
// start at the same neighboring AS — the lower MED must win even when it
// arrives last.
func TestDecisionMEDSameNeighbor(t *testing.T) {
	s := newServer(t, 100, 200, 300)
	s.HandleUpdate(200, announceAttrs("10.0.0.0/8",
		bgp.PathAttrs{ASPath: []uint32{900}, NextHop: 200, MED: 50, HasMED: true}))
	s.HandleUpdate(300, announceAttrs("10.0.0.0/8",
		bgp.PathAttrs{ASPath: []uint32{900}, NextHop: 300, MED: 10, HasMED: true}))
	best, ok := s.BestRoute(100, pfx("10.0.0.0/8"))
	if !ok || best.PeerAS != 300 {
		t.Fatalf("same-neighbor MED: best = %v, want via AS300 (MED 10)", best)
	}
}

// TestDecisionMEDDifferentNeighborIgnored: between different neighboring
// ASes MED must NOT be compared; the tie falls through to router ID, so
// a huge MED on the lower-router-id route does not demote it.
func TestDecisionMEDDifferentNeighborIgnored(t *testing.T) {
	s := newServer(t, 100, 200, 300)
	s.HandleUpdate(200, announceAttrs("10.0.0.0/8",
		bgp.PathAttrs{ASPath: []uint32{901}, NextHop: 200, MED: 5000, HasMED: true}))
	s.HandleUpdate(300, announceAttrs("10.0.0.0/8",
		bgp.PathAttrs{ASPath: []uint32{902}, NextHop: 300, MED: 1, HasMED: true}))
	best, ok := s.BestRoute(100, pfx("10.0.0.0/8"))
	if !ok || best.PeerAS != 200 {
		t.Fatalf("cross-neighbor MED leak: best = %v, want via AS200 (lower router ID)", best)
	}
}

// TestDecisionMissingMEDTreatedAsZero: a route without MED competes as
// MED 0 against a same-neighbor route that carries one.
func TestDecisionMissingMEDTreatedAsZero(t *testing.T) {
	s := newServer(t, 100, 200, 300)
	s.HandleUpdate(200, announceAttrs("10.0.0.0/8",
		bgp.PathAttrs{ASPath: []uint32{900}, NextHop: 200, MED: 1, HasMED: true}))
	s.HandleUpdate(300, announceAttrs("10.0.0.0/8",
		bgp.PathAttrs{ASPath: []uint32{900}, NextHop: 300}))
	best, ok := s.BestRoute(100, pfx("10.0.0.0/8"))
	if !ok || best.PeerAS != 300 {
		t.Fatalf("missing MED: best = %v, want via AS300 (implicit MED 0)", best)
	}
}

// TestDecisionOriginBeatsMED: origin is a higher-priority step than MED,
// so IGP (0) beats EGP (1) regardless of MED values.
func TestDecisionOriginBeatsMED(t *testing.T) {
	s := newServer(t, 100, 200, 300)
	s.HandleUpdate(200, announceAttrs("10.0.0.0/8",
		bgp.PathAttrs{ASPath: []uint32{900}, NextHop: 200, Origin: bgp.OriginEGP, MED: 0, HasMED: true}))
	s.HandleUpdate(300, announceAttrs("10.0.0.0/8",
		bgp.PathAttrs{ASPath: []uint32{900}, NextHop: 300, Origin: bgp.OriginIGP, MED: 9999, HasMED: true}))
	best, ok := s.BestRoute(100, pfx("10.0.0.0/8"))
	if !ok || best.PeerAS != 300 {
		t.Fatalf("origin step: best = %v, want via AS300 (IGP origin)", best)
	}
}

// TestDecisionRouterIDFinalTieBreak: with every attribute equal the
// lowest router ID wins, independent of arrival order.
func TestDecisionRouterIDFinalTieBreak(t *testing.T) {
	for name, order := range map[string][]uint32{
		"low-first":  {200, 300},
		"high-first": {300, 200},
	} {
		s := newServer(t, 100, 200, 300)
		for _, as := range order {
			s.HandleUpdate(as, announceAttrs("10.0.0.0/8",
				bgp.PathAttrs{ASPath: []uint32{as, 900}, NextHop: iputil.Addr(as)}))
		}
		best, ok := s.BestRoute(100, pfx("10.0.0.0/8"))
		if !ok || best.PeerAS != 200 {
			t.Fatalf("%s: best = %v, want via AS200 (router ID 200 < 300)", name, best)
		}
	}
}

// TestDecisionOrderIndependence: the deterministic-MED procedure must
// yield the same winner for every arrival order of a candidate set that
// triggers the classic MED ordering anomaly (MED comparable within
// neighbor groups, incomparable across them).
func TestDecisionOrderIndependence(t *testing.T) {
	type ann struct {
		peer  uint32
		attrs bgp.PathAttrs
	}
	anns := []ann{
		{200, bgp.PathAttrs{ASPath: []uint32{900}, NextHop: 200, MED: 10, HasMED: true}},
		{300, bgp.PathAttrs{ASPath: []uint32{900}, NextHop: 300, MED: 20, HasMED: true}},
		{400, bgp.PathAttrs{ASPath: []uint32{901}, NextHop: 400, MED: 5, HasMED: true}},
	}
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	var want uint32
	for i, order := range orders {
		s := newServer(t, 100, 200, 300, 400)
		for _, j := range order {
			s.HandleUpdate(anns[j].peer, announceAttrs("10.0.0.0/8", anns[j].attrs))
		}
		best, ok := s.BestRoute(100, pfx("10.0.0.0/8"))
		if !ok {
			t.Fatalf("order %v: no best route", order)
		}
		if i == 0 {
			want = best.PeerAS
			continue
		}
		if best.PeerAS != want {
			t.Fatalf("order %v: best via AS%d, first order chose AS%d — decision depends on arrival order",
				order, best.PeerAS, want)
		}
	}
}

// TestDecisionLocalPrefDominates: LOCAL_PREF outranks path length.
func TestDecisionLocalPrefDominates(t *testing.T) {
	s := newServer(t, 100, 200, 300)
	s.HandleUpdate(200, announceAttrs("10.0.0.0/8",
		bgp.PathAttrs{ASPath: []uint32{200}, NextHop: 200}))
	s.HandleUpdate(300, announceAttrs("10.0.0.0/8",
		bgp.PathAttrs{ASPath: []uint32{300, 900, 901}, NextHop: 300, LocalPref: 200, HasLocalPref: true}))
	best, ok := s.BestRoute(100, pfx("10.0.0.0/8"))
	if !ok || best.PeerAS != 300 {
		t.Fatalf("local pref: best = %v, want via AS300 (pref 200 beats shorter path)", best)
	}
}

// --- Community corner cases beyond the happy path ---------------------------

// TestCommunityWhitelistExcludesEvenBestRoute: when a whitelist community
// is present, a non-whitelisted participant must fall back to a worse
// route from another peer rather than seeing the whitelisted one.
func TestCommunityWhitelistExcludesEvenBestRoute(t *testing.T) {
	s := newCommunityServer(t)
	// Short path via 200, whitelisted to AS300 only.
	s.HandleUpdate(200, &bgp.Update{
		Attrs: &bgp.PathAttrs{ASPath: []uint32{200}, NextHop: 200,
			Communities: []uint32{rsAS<<16 | 300}},
		NLRI: []iputil.Prefix{pfx("10.0.0.0/8")},
	})
	// Longer unrestricted path via 300.
	s.HandleUpdate(300, announceAttrs("10.0.0.0/8",
		bgp.PathAttrs{ASPath: []uint32{300, 900, 901}, NextHop: 300}))

	if best, ok := s.BestRoute(100, pfx("10.0.0.0/8")); !ok || best.PeerAS != 300 {
		t.Fatalf("AS100 best = %v, want the unrestricted route via AS300", best)
	}
	if best, ok := s.BestRoute(300, pfx("10.0.0.0/8")); !ok || best.PeerAS != 200 {
		t.Fatalf("AS300 best = %v, want the whitelisted (shorter) route via AS200", best)
	}
}

// TestCommunityMixedDenyAndWhitelist: a deny-to-peer community composes
// with a whitelist on the same route — the denied peer loses even when
// whitelisted by a second community.
func TestCommunityMixedDenyAndWhitelist(t *testing.T) {
	s := newCommunityServer(t)
	s.HandleUpdate(200, &bgp.Update{
		Attrs: &bgp.PathAttrs{ASPath: []uint32{200}, NextHop: 200,
			Communities: []uint32{rsAS<<16 | 100, 0<<16 | 100}},
		NLRI: []iputil.Prefix{pfx("10.0.0.0/8")},
	})
	if _, ok := s.BestRoute(100, pfx("10.0.0.0/8")); ok {
		t.Fatal("deny-to-AS100 must override the whitelist entry for AS100")
	}
	if _, ok := s.BestRoute(300, pfx("10.0.0.0/8")); ok {
		t.Fatal("whitelist names only AS100, so AS300 must not see the route either")
	}
}

// TestCommunityWithdrawRestoresVisibility: when a community-restricted
// route is withdrawn and re-announced without communities, visibility
// must recover (stale community state would be a recompute bug).
func TestCommunityWithdrawRestoresVisibility(t *testing.T) {
	s := newCommunityServer(t)
	s.HandleUpdate(200, announceWithCommunities("10.0.0.0/8", 200, 0<<16|100))
	if _, ok := s.BestRoute(100, pfx("10.0.0.0/8")); ok {
		t.Fatal("AS100 must not see the restricted route")
	}
	s.HandleUpdate(200, withdraw("10.0.0.0/8"))
	changed := s.HandleUpdate(200, announceAttrs("10.0.0.0/8",
		bgp.PathAttrs{ASPath: []uint32{200}, NextHop: 200}))
	if len(changed) == 0 {
		t.Fatal("re-announcement should change best routes")
	}
	if _, ok := s.BestRoute(100, pfx("10.0.0.0/8")); !ok {
		t.Fatal("AS100 must see the route after the unrestricted re-announcement")
	}
}

// TestCommunityReachablePrefixesHonorsWhitelist: the compiler-facing
// ReachablePrefixes query must apply the same community filtering as the
// advertisement path, or outbound policies would forward along paths BGP
// never offered to that participant.
func TestCommunityReachablePrefixesHonorsWhitelist(t *testing.T) {
	s := newCommunityServer(t)
	s.HandleUpdate(200, announceWithCommunities("10.0.0.0/8", 200, rsAS<<16|300))
	s.HandleUpdate(200, announceWithCommunities("11.0.0.0/8", 200))
	if got := s.ReachablePrefixes(100, 200); len(got) != 1 || got[0] != pfx("11.0.0.0/8") {
		t.Fatalf("AS100 reachable via AS200 = %v, want only 11.0.0.0/8", got)
	}
	got := s.ReachablePrefixes(300, 200)
	if len(got) != 2 {
		t.Fatalf("AS300 reachable via AS200 = %v, want both prefixes", got)
	}
}
