package rs

import (
	"math/rand"
	"slices"
	"testing"

	"sdx/internal/bgp"
	"sdx/internal/iputil"
)

// naiveSet answers one set query the slow, obvious way: every prefix,
// every route, the filters applied in place.
func naiveSet(s *Server, q SetQuery) []iputil.Prefix {
	out := []iputil.Prefix{}
	for _, p := range s.adjIn.Prefixes() {
		for _, r := range s.adjIn.Routes(p) {
			if r.PeerAS != q.Via {
				continue
			}
			if !q.Announced {
				if adv := s.participants[q.Via]; adv != nil && !adv.cfg.Export.Allows(q.Viewer, p) {
					continue
				}
				if !communityAllows(s.communityAS, r, q.Viewer) {
					continue
				}
			}
			out = append(out, p)
		}
	}
	return out
}

// TestRouteSetsMatchesNaiveOracle: over 200 seeded exchanges of the
// compiletest corpus's shapes (3–24 participants, 40–240 prefixes), with
// export deny-lists, community black- and whitelists, peers that announce
// nothing and a via that is not registered, one batched RouteSets call
// answers every query exactly as the per-query oracle does, and its
// GlobalBest agrees with the server's for every prefix it hands out.
func TestRouteSetsMatchesNaiveOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed*7919 + 13))
		nPart, nPfx := 3+r.Intn(22), 40+r.Intn(201)
		prefixes := make([]iputil.Prefix, nPfx)
		for i := range prefixes {
			prefixes[i] = iputil.MustParsePrefix(iputil.Addr(0x0a000000|uint32(i)<<8).String() + "/24")
		}
		ases := make([]uint32, nPart)
		for i := range ases {
			ases[i] = 100 + uint32(i)
		}
		pick := func() uint32 { return ases[r.Intn(nPart)] }

		s := New()
		if seed%2 == 0 {
			s.EnableCommunities(rsAS)
		}
		for _, as := range ases {
			cfg := ParticipantConfig{AS: as, RouterID: iputil.Addr(as)}
			if r.Intn(3) == 0 {
				exp := &ExportPolicy{DenyAllTo: map[uint32]bool{}, DenyTo: map[uint32][]iputil.Prefix{}}
				if r.Intn(2) == 0 {
					exp.DenyAllTo[pick()] = true
				}
				to := pick()
				for n := r.Intn(8); n > 0; n-- {
					exp.DenyTo[to] = append(exp.DenyTo[to], prefixes[r.Intn(nPfx)])
				}
				cfg.Export = exp
			}
			if err := s.AddParticipant(cfg); err != nil {
				t.Fatal(err)
			}
		}
		var batch []PeerUpdate
		for i, as := range ases {
			if i%5 == 4 {
				continue // a peer that announces nothing
			}
			for n := r.Intn(nPfx); n > 0; n-- {
				var comms []uint32
				switch r.Intn(6) {
				case 0:
					comms = []uint32{pick() & 0xffff} // (0, peer): not to peer
				case 1:
					comms = []uint32{rsAS<<16 | pick()&0xffff} // (rsAS, peer): only to peer
				case 2:
					comms = []uint32{rsAS & 0xffff} // (0, rsAS): to nobody
				}
				batch = append(batch, PeerUpdate{From: as, Update: &bgp.Update{
					Attrs: &bgp.PathAttrs{ASPath: []uint32{as, 900 + uint32(r.Intn(3))}, NextHop: iputil.Addr(as), Communities: comms},
					NLRI:  []iputil.Prefix{prefixes[r.Intn(nPfx)]},
				}})
			}
		}
		// A route from a peer the registry does not know (no export policy
		// to consult).
		const stranger = 999
		s.Apply(append(batch, PeerUpdate{From: stranger, Update: &bgp.Update{
			Attrs: &bgp.PathAttrs{ASPath: []uint32{stranger}, NextHop: stranger},
			NLRI:  prefixes[:3],
		}}))

		var queries []SetQuery
		for _, viewer := range ases {
			for n := 1 + r.Intn(3); n > 0; n-- {
				queries = append(queries, SetQuery{Viewer: viewer, Via: pick()})
			}
		}
		for _, as := range ases {
			queries = append(queries, SetQuery{Via: as, Announced: true}, SetQuery{Via: as}) // synthetic set, resolveOwner's
		}
		queries = append(queries, SetQuery{Viewer: ases[0], Via: stranger}, SetQuery{Viewer: ases[0], Via: 12345})
		queries = append(queries, queries[0]) // a repeated query gets its own answer

		got := s.RouteSets(queries)
		if len(got.Sets) != len(queries) {
			t.Fatalf("seed %d: %d sets for %d queries", seed, len(got.Sets), len(queries))
		}
		for i, q := range queries {
			set := got.Sets[i]
			if !slices.IsSortedFunc(set, iputil.Prefix.Compare) || len(slices.Compact(slices.Clone(set))) != len(set) {
				t.Fatalf("seed %d: query %+v: not sorted and duplicate-free: %v", seed, q, set)
			}
			if want := naiveSet(s, q); !slices.Equal(set, want) {
				t.Fatalf("seed %d: query %+v:\n got %v\nwant %v", seed, q, set, want)
			}
			for _, p := range set {
				if got.GlobalBest(p) != s.GlobalBest(p) {
					t.Fatalf("seed %d: GlobalBest(%s) = %v, server says %v", seed, p, got.GlobalBest(p), s.GlobalBest(p))
				}
			}
		}
		if len(queries) > 1 && len(got.Sets[0]) > 0 && &got.Sets[0][0] == &got.Sets[len(queries)-1][0] {
			t.Fatalf("seed %d: repeated query shares its answer's storage", seed)
		}
	}
}
