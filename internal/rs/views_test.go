package rs

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sdx/internal/bgp"
	"sdx/internal/iputil"
	"sdx/internal/telemetry"
)

// oracleBest is the naive per-viewer decision: bgp.Best over every route
// of prefix that viewer as is shown, filters applied in place.
func oracleBest(s *Server, as uint32, p iputil.Prefix) *bgp.Route {
	var cands []*bgp.Route
	for _, r := range s.adjIn.Routes(p) {
		if r.PeerAS == as {
			continue
		}
		if adv := s.participants[r.PeerAS]; adv != nil && !adv.cfg.Export.Allows(as, p) {
			continue
		}
		if !communityAllows(s.communityAS, r, as) {
			continue
		}
		cands = append(cands, r)
	}
	return bgp.Best(cands)
}

// locRIB is a per-viewer Loc-RIB: viewer -> prefix -> best route.
type locRIB map[uint32]map[iputil.Prefix]*bgp.Route

func oracleRIB(s *Server, viewers []uint32, universe []iputil.Prefix) locRIB {
	out := make(locRIB, len(viewers))
	for _, as := range viewers {
		out[as] = make(map[iputil.Prefix]*bgp.Route)
		for _, p := range universe {
			if r := oracleBest(s, as, p); r != nil {
				out[as][p] = r
			}
		}
	}
	return out
}

// diffChanges is what a step from before to after must report, for the
// viewers registered after the step: the prefixes, sorted, where some
// viewer's best changed, and how many (viewer, prefix) bests changed.
func diffChanges(before, after locRIB, viewers []uint32, universe []iputil.Prefix) ([]iputil.Prefix, int) {
	var changed []iputil.Prefix
	n := 0
	for _, p := range universe {
		moved := false
		for _, as := range viewers {
			if before[as][p] != after[as][p] {
				moved = true
				n++
			}
		}
		if moved {
			changed = append(changed, p)
		}
	}
	return changed, n
}

// TestViewsMatchPerViewerOracle: over 200 seeded random exchanges — export
// deny-lists, no-export and whitelist communities, MED groups, a route
// announcer the registry never knows, and Apply, AddParticipant,
// RemoveParticipant and FlushPeer interleaved — after every step the
// stored views answer BestRoute, BestRoutes, GlobalBest, the returned
// changed prefixes, the rs.best_changes counter and the rs.loc_rib_routes
// gauge exactly as a per-viewer oracle recomputed from the Adj-RIB-In
// does.
func TestViewsMatchPerViewerOracle(t *testing.T) {
	const stranger = 999 // announces, is never registered
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed*104729 + 7))
		universe := make([]iputil.Prefix, 4+r.Intn(12))
		for i := range universe {
			universe[i] = iputil.MustParsePrefix(iputil.Addr(0x0a000000|uint32(i)<<8).String() + "/24")
		}
		slices.SortFunc(universe, iputil.Prefix.Compare)
		pool := make([]uint32, 3+r.Intn(8))
		for i := range pool {
			pool[i] = 100 + uint32(i)
		}

		reg := telemetry.NewRegistry()
		s := New(WithMetrics(reg))
		if seed%2 == 0 {
			s.EnableCommunities(rsAS)
		}
		add := func(as uint32) {
			cfg := ParticipantConfig{AS: as, RouterID: iputil.Addr(1 + r.Intn(4))}
			if r.Intn(3) == 0 {
				exp := &ExportPolicy{DenyAllTo: map[uint32]bool{}, DenyTo: map[uint32][]iputil.Prefix{}}
				if r.Intn(2) == 0 {
					exp.DenyAllTo[pool[r.Intn(len(pool))]] = true
				}
				to := pool[r.Intn(len(pool))]
				for n := r.Intn(4); n > 0; n-- {
					exp.DenyTo[to] = append(exp.DenyTo[to], universe[r.Intn(len(universe))])
				}
				cfg.Export = exp
			}
			if err := s.AddParticipant(cfg); err != nil {
				t.Fatal(err)
			}
		}
		for _, as := range pool {
			if r.Intn(4) != 0 {
				add(as)
			}
		}
		announcers := func() []uint32 { return append(s.Participants(), stranger) }
		randomUpdate := func(from uint32) *bgp.Update {
			p := universe[r.Intn(len(universe))]
			if r.Intn(4) == 0 {
				return &bgp.Update{Withdrawn: []iputil.Prefix{p}}
			}
			attrs := &bgp.PathAttrs{ASPath: []uint32{900 + uint32(r.Intn(2))}, NextHop: iputil.Addr(from)}
			for n := r.Intn(2); n > 0; n-- {
				attrs.ASPath = append(attrs.ASPath, 950)
			}
			if r.Intn(2) == 0 {
				attrs.MED, attrs.HasMED = uint32(r.Intn(3)), true
			}
			switch r.Intn(8) {
			case 0:
				attrs.Communities = []uint32{pool[r.Intn(len(pool))] & 0xffff} // (0, peer): not to peer
			case 1:
				attrs.Communities = []uint32{rsAS<<16 | pool[r.Intn(len(pool))]&0xffff} // only to peer
			case 2:
				attrs.Communities = []uint32{rsAS & 0xffff} // (0, rsAS): to nobody
			}
			return &bgp.Update{Attrs: attrs, NLRI: []iputil.Prefix{p}}
		}

		for step := 0; step < 30; step++ {
			before := oracleRIB(s, s.Participants(), universe)
			changesBefore := reg.Snapshot().Counters["rs.best_changes"]
			var changed []iputil.Prefix
			op := r.Intn(10)
			var unregistered []uint32
			for _, as := range pool {
				if !s.registered(as) {
					unregistered = append(unregistered, as)
				}
			}
			switch {
			case op == 0 && len(unregistered) > 0:
				add(unregistered[r.Intn(len(unregistered))])
			case op == 1 && len(s.Participants()) > 0:
				ps := s.Participants()
				changed = s.RemoveParticipant(ps[r.Intn(len(ps))])
			case op == 2:
				as := announcers()
				changed = s.FlushPeer(as[r.Intn(len(as))])
			default:
				as := announcers()
				var batch []PeerUpdate
				for n := 1 + r.Intn(6); n > 0; n-- {
					from := as[r.Intn(len(as))]
					batch = append(batch, PeerUpdate{From: from, Update: randomUpdate(from)})
				}
				changed = s.Apply(batch)
			}

			viewers := s.Participants()
			want := oracleRIB(s, viewers, universe)
			if op != 0 { // AddParticipant reports no changes
				exp, n := diffChanges(before, want, viewers, universe)
				if !slices.Equal(changed, exp) {
					t.Fatalf("seed %d step %d op %d: changed\n got %v\nwant %v", seed, step, op, changed, exp)
				}
				if got := reg.Snapshot().Counters["rs.best_changes"] - changesBefore; got != int64(n) {
					t.Fatalf("seed %d step %d op %d: rs.best_changes grew by %d, oracle %d", seed, step, op, got, n)
				}
			}
			gauge := 0
			for _, as := range viewers {
				for _, p := range universe {
					w := want[as][p]
					if got, ok := s.BestRoute(as, p); got != w || ok != (w != nil) {
						t.Fatalf("seed %d step %d: BestRoute(%d, %s) = %v, %v; oracle %v", seed, step, as, p, got, ok, w)
					}
				}
				got := s.BestRoutes(as)
				if len(got) != len(want[as]) {
					t.Fatalf("seed %d step %d: BestRoutes(%d) has %d routes, oracle %d", seed, step, as, len(got), len(want[as]))
				}
				for p, w := range want[as] {
					if got[p] != w {
						t.Fatalf("seed %d step %d: BestRoutes(%d)[%s] = %v, oracle %v", seed, step, as, p, got[p], w)
					}
				}
				gauge += len(want[as])
			}
			for _, as := range unregistered {
				if s.registered(as) {
					continue
				}
				if got, ok := s.BestRoute(as, universe[0]); got != nil || ok {
					t.Fatalf("seed %d step %d: unregistered AS%d has best route %v", seed, step, as, got)
				}
				if s.BestRoutes(as) != nil {
					t.Fatalf("seed %d step %d: unregistered AS%d has a Loc-RIB", seed, step, as)
				}
			}
			for _, p := range universe {
				if got, w := s.GlobalBest(p), bgp.Best(s.adjIn.Routes(p)); got != w {
					t.Fatalf("seed %d step %d: GlobalBest(%s) = %v, want %v", seed, step, p, got, w)
				}
			}
			if got := reg.Snapshot().Gauges["rs.loc_rib_routes"]; got != int64(gauge) {
				t.Fatalf("seed %d step %d: rs.loc_rib_routes = %d, oracle %d", seed, step, got, gauge)
			}
		}
	}
}

// TestViewsConcurrentReaders: readers that take no registry lock
// (BestRoute, BestRoutes, GlobalBest, Participants) run while updates,
// joins and departures rewrite the views and republish the viewer list.
// Run under -race; every route a reader sees must be for its prefix.
func TestViewsConcurrentReaders(t *testing.T) {
	s := fanout(t, 8)
	prefixes := []iputil.Prefix{pfx("10.0.0.0/24"), pfx("10.0.1.0/24"), pfx("10.0.2.0/24")}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, as := range s.Participants() {
					for _, p := range prefixes {
						if r, ok := s.BestRoute(as, p); ok && r.Prefix != p {
							t.Errorf("BestRoute(%d, %s) = %v", as, p, r)
						}
						if r := s.GlobalBest(p); r != nil && r.Prefix != p {
							t.Errorf("GlobalBest(%s) = %v", p, r)
						}
					}
					for p, r := range s.BestRoutes(as) {
						if r.Prefix != p {
							t.Errorf("BestRoutes(%d)[%s] = %v", as, p, r)
						}
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		from := 100 + uint32(i%8)
		switch i % 10 {
		case 7:
			s.RemoveParticipant(from)
		case 8:
			if err := s.AddParticipant(ParticipantConfig{AS: 100 + uint32((i-1)%8)}); err != nil {
				t.Error(err)
			}
		default:
			s.Apply([]PeerUpdate{{From: from, Update: announce([]string{prefixes[i%3].String()}, from, 900+uint32(i%4))}})
		}
	}
	close(stop)
	wg.Wait()
}

// TestMEDAnomalyVisibleGlobalBestIsNotViewerBest pins the case that rules
// out the shortcut "the viewer can see the overall best, so that is its
// best". Routes via AS200 and AS300 share neighbour AS900, via AS400 it is
// AS901. Overall, AS200's MED 10 beats AS300's MED 20 within AS900, and
// AS400 beats AS200 on router ID. AS200 is not shown its own route, so
// within AS900 AS300 now wins, and AS300 beats AS400 on router ID — while
// AS400's route, the overall best, is in AS200's view all along.
func TestMEDAnomalyVisibleGlobalBestIsNotViewerBest(t *testing.T) {
	s := New()
	for _, p := range []struct{ as, id uint32 }{{100, 100}, {200, 200}, {300, 100}, {400, 150}} {
		if err := s.AddParticipant(ParticipantConfig{AS: p.as, RouterID: iputil.Addr(p.id)}); err != nil {
			t.Fatal(err)
		}
	}
	s.HandleUpdate(200, announceAttrs("10.0.0.0/8", bgp.PathAttrs{ASPath: []uint32{900}, NextHop: 200, MED: 10, HasMED: true}))
	s.HandleUpdate(300, announceAttrs("10.0.0.0/8", bgp.PathAttrs{ASPath: []uint32{900}, NextHop: 300, MED: 20, HasMED: true}))
	s.HandleUpdate(400, announceAttrs("10.0.0.0/8", bgp.PathAttrs{ASPath: []uint32{901}, NextHop: 400}))

	p := pfx("10.0.0.0/8")
	if g := s.GlobalBest(p); g == nil || g.PeerAS != 400 {
		t.Fatalf("GlobalBest = %v, want via AS400", g)
	}
	for viewer, want := range map[uint32]uint32{100: 400, 200: 300, 300: 400, 400: 200} {
		if best, ok := s.BestRoute(viewer, p); !ok || best.PeerAS != want {
			t.Fatalf("AS%d best = %v, want via AS%d", viewer, best, want)
		}
	}
}

// TestExceptionsBoundedByHiddenViewers: on a 200-participant × 2k-prefix
// exchange, the stored exceptions number at most, summed over prefixes,
// the prefix's announcers plus the viewers an export policy or community
// hides a route from — never participants × prefixes.
func TestExceptionsBoundedByHiddenViewers(t *testing.T) {
	const nPart, nPfx = 200, 2000
	r := rand.New(rand.NewSource(5))
	s := New()
	s.EnableCommunities(rsAS)
	prefixes := make([]iputil.Prefix, nPfx)
	for i := range prefixes {
		prefixes[i] = iputil.MustParsePrefix(iputil.Addr(0x0a000000|uint32(i)<<8).String() + "/24")
	}
	for i := 0; i < nPart; i++ {
		cfg := ParticipantConfig{AS: 1000 + uint32(i), RouterID: iputil.Addr(1000 + i)}
		if i%10 == 0 {
			cfg.Export = &ExportPolicy{
				DenyAllTo: map[uint32]bool{1000 + uint32(r.Intn(nPart)): true},
				DenyTo:    map[uint32][]iputil.Prefix{1000 + uint32(r.Intn(nPart)): {prefixes[r.Intn(nPfx)]}},
			}
		}
		if err := s.AddParticipant(cfg); err != nil {
			t.Fatal(err)
		}
	}
	var batch []PeerUpdate
	for _, p := range prefixes {
		for n := 1 + r.Intn(3); n > 0; n-- {
			from := 1000 + uint32(r.Intn(nPart))
			attrs := &bgp.PathAttrs{ASPath: []uint32{from, 900 + uint32(r.Intn(3))}, NextHop: iputil.Addr(from)}
			if r.Intn(20) == 0 {
				attrs.Communities = []uint32{(1000 + uint32(r.Intn(nPart))) & 0xffff}
			}
			batch = append(batch, PeerUpdate{From: from, Update: &bgp.Update{Attrs: attrs, NLRI: []iputil.Prefix{p}}})
		}
	}
	s.Apply(batch)

	stored, bound := 0, 0
	for si := range s.shards {
		for _, v := range s.shards[si].views {
			stored += len(v.except)
		}
	}
	viewers := s.Participants()
	for _, p := range prefixes {
		for _, as := range viewers {
			if slices.ContainsFunc(s.adjIn.Routes(p), func(r *bgp.Route) bool { return s.hidden(as, p, r) }) {
				bound++
			}
		}
	}
	if stored > bound {
		t.Fatalf("%d exceptions stored, bound is %d", stored, bound)
	}
	if stored >= nPart*nPfx/20 {
		t.Fatalf("%d exceptions for %d×%d viewer-prefix pairs: not a small fraction", stored, nPart, nPfx)
	}
	t.Logf("%d exceptions (bound %d) for %d viewer-prefix pairs", stored, bound, nPart*nPfx)
}
