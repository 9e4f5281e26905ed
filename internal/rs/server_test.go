package rs

import (
	"testing"

	"sdx/internal/bgp"
	"sdx/internal/iputil"
)

func pfx(s string) iputil.Prefix { return iputil.MustParsePrefix(s) }

func announce(prefixes []string, path ...uint32) *bgp.Update {
	ps := make([]iputil.Prefix, len(prefixes))
	for i, p := range prefixes {
		ps[i] = pfx(p)
	}
	return &bgp.Update{
		Attrs: &bgp.PathAttrs{ASPath: path, NextHop: iputil.Addr(path[0])},
		NLRI:  ps,
	}
}

func withdraw(prefixes ...string) *bgp.Update {
	ps := make([]iputil.Prefix, len(prefixes))
	for i, p := range prefixes {
		ps[i] = pfx(p)
	}
	return &bgp.Update{Withdrawn: ps}
}

// HandleUpdate applies one UPDATE received from participant `from`: Apply
// with a one-element batch.
func (s *Server) HandleUpdate(from uint32, u *bgp.Update) []iputil.Prefix {
	return s.Apply([]PeerUpdate{{From: from, Update: u}})
}

func newServer(t *testing.T, ases ...uint32) *Server {
	t.Helper()
	s := New()
	for _, as := range ases {
		if err := s.AddParticipant(ParticipantConfig{AS: as, RouterID: iputil.Addr(as)}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestBestRoutePerParticipant(t *testing.T) {
	s := newServer(t, 100, 200, 300)
	s.HandleUpdate(200, announce([]string{"10.0.0.0/8"}, 200, 900))
	via200, _ := s.BestRoute(300, pfx("10.0.0.0/8"))
	changed := s.HandleUpdate(300, announce([]string{"10.0.0.0/8"}, 300))
	if len(changed) != 1 || changed[0] != pfx("10.0.0.0/8") {
		t.Fatalf("changed prefixes: %v", changed)
	}

	// AS 100 should prefer the shorter path via 300.
	best, ok := s.BestRoute(100, pfx("10.0.0.0/8"))
	if !ok || best.PeerAS != 300 {
		t.Fatalf("best for 100: %v (ok=%v)", best, ok)
	}
	// AS 300 must not receive its own route back; its best is via 200.
	best, ok = s.BestRoute(300, pfx("10.0.0.0/8"))
	if !ok || best.PeerAS != 200 {
		t.Fatalf("best for 300: %v", best)
	}
	// The second announcement changed the best for 100 and 200 but for
	// 300 the route via 200 stays (its own route is excluded).
	if best != via200 {
		t.Fatalf("announcer's own view changed: %v -> %v", via200, best)
	}
}

func TestDuplicateParticipant(t *testing.T) {
	s := newServer(t, 100)
	if err := s.AddParticipant(ParticipantConfig{AS: 100}); err == nil {
		t.Fatal("duplicate must error")
	}
}

func TestWithdrawalFallsBack(t *testing.T) {
	s := newServer(t, 100, 200, 300)
	s.HandleUpdate(200, announce([]string{"10.0.0.0/8"}, 200))
	s.HandleUpdate(300, announce([]string{"10.0.0.0/8"}, 300, 900))
	// 100 prefers 200 (shorter). Withdraw it: falls back to 300.
	changed := s.HandleUpdate(200, withdraw("10.0.0.0/8"))
	best, ok := s.BestRoute(100, pfx("10.0.0.0/8"))
	if !ok || best.PeerAS != 300 {
		t.Fatalf("after withdrawal best = %v", best)
	}
	if len(changed) != 1 || changed[0] != pfx("10.0.0.0/8") {
		t.Fatalf("fallback not reported as a change, got %v", changed)
	}
	// Withdraw the last route: best disappears.
	s.HandleUpdate(300, withdraw("10.0.0.0/8"))
	if _, ok := s.BestRoute(100, pfx("10.0.0.0/8")); ok {
		t.Fatal("best should disappear after last withdrawal")
	}
}

func TestWithdrawUnknownPrefixNoEvents(t *testing.T) {
	s := newServer(t, 100, 200)
	if changed := s.HandleUpdate(200, withdraw("99.0.0.0/8")); len(changed) != 0 {
		t.Fatalf("changes for unknown withdrawal: %v", changed)
	}
}

func TestExportPolicyDenyTo(t *testing.T) {
	// Figure 1b: AS B does not export p4 to AS A.
	s := New()
	p4 := pfx("40.0.0.0/8")
	s.AddParticipant(ParticipantConfig{AS: 100, RouterID: 100}) // A
	s.AddParticipant(ParticipantConfig{AS: 200, RouterID: 200,  // B
		Export: &ExportPolicy{DenyTo: map[uint32][]iputil.Prefix{100: {p4}}}})
	s.AddParticipant(ParticipantConfig{AS: 300, RouterID: 300}) // C

	s.HandleUpdate(200, announce([]string{"40.0.0.0/8", "10.0.0.0/8"}, 200))

	if _, ok := s.BestRoute(100, p4); ok {
		t.Fatal("A must not see B's p4")
	}
	if _, ok := s.BestRoute(100, pfx("10.0.0.0/8")); !ok {
		t.Fatal("A should see B's other prefix")
	}
	if _, ok := s.BestRoute(300, p4); !ok {
		t.Fatal("C should see p4")
	}

	reach := s.ReachablePrefixes(100, 200)
	if len(reach) != 1 || reach[0] != pfx("10.0.0.0/8") {
		t.Fatalf("ReachablePrefixes(A via B) = %v", reach)
	}
	reach = s.ReachablePrefixes(300, 200)
	if len(reach) != 2 {
		t.Fatalf("ReachablePrefixes(C via B) = %v", reach)
	}
}

func TestExportPolicyDenyAll(t *testing.T) {
	s := New()
	s.AddParticipant(ParticipantConfig{AS: 100})
	s.AddParticipant(ParticipantConfig{AS: 200,
		Export: &ExportPolicy{DenyAllTo: map[uint32]bool{100: true}}})
	s.HandleUpdate(200, announce([]string{"10.0.0.0/8"}, 200))
	if _, ok := s.BestRoute(100, pfx("10.0.0.0/8")); ok {
		t.Fatal("deny-all peer must see nothing")
	}
}

func TestLateJoinerLearnsExistingRoutes(t *testing.T) {
	s := newServer(t, 200)
	s.HandleUpdate(200, announce([]string{"10.0.0.0/8", "20.0.0.0/8"}, 200))
	s.AddParticipant(ParticipantConfig{AS: 100, RouterID: 100})
	if best := s.BestRoutes(100); len(best) != 2 {
		t.Fatalf("late joiner Loc-RIB: %v", best)
	}
}

func TestRemoveParticipantWithdrawsRoutes(t *testing.T) {
	s := newServer(t, 100, 200, 300)
	s.HandleUpdate(200, announce([]string{"10.0.0.0/8"}, 200))
	s.HandleUpdate(300, announce([]string{"10.0.0.0/8"}, 300, 900))
	changed := s.RemoveParticipant(200)
	best, ok := s.BestRoute(100, pfx("10.0.0.0/8"))
	if !ok || best.PeerAS != 300 {
		t.Fatalf("after removal best = %v", best)
	}
	if len(changed) != 1 || changed[0] != pfx("10.0.0.0/8") {
		t.Fatalf("removal changed %v, want [10.0.0.0/8]", changed)
	}
	if ps := s.Participants(); len(ps) != 2 {
		t.Fatalf("Participants = %v", ps)
	}
}

func TestAnnouncedPrefixes(t *testing.T) {
	s := newServer(t, 100, 200)
	s.HandleUpdate(200, announce([]string{"20.0.0.0/8", "10.0.0.0/8"}, 200))
	got := s.AnnouncedPrefixes(200)
	if len(got) != 2 || got[0] != pfx("10.0.0.0/8") {
		t.Fatalf("AnnouncedPrefixes = %v", got)
	}
	if got := s.AnnouncedPrefixes(100); len(got) != 0 {
		t.Fatalf("silent participant announced %v", got)
	}
	if len(s.Prefixes()) != 2 {
		t.Fatalf("Prefixes = %v", s.Prefixes())
	}
}

func TestUpdatesProcessedCounter(t *testing.T) {
	s := newServer(t, 100, 200)
	s.HandleUpdate(200, announce([]string{"10.0.0.0/8"}, 200))
	s.HandleUpdate(200, withdraw("10.0.0.0/8"))
	if s.UpdatesProcessed() != 2 {
		t.Fatalf("UpdatesProcessed = %d", s.UpdatesProcessed())
	}
}

func TestReAnnouncementReplacesRoute(t *testing.T) {
	s := newServer(t, 100, 200)
	s.HandleUpdate(200, announce([]string{"10.0.0.0/8"}, 200, 900))
	changed := s.HandleUpdate(200, announce([]string{"10.0.0.0/8"}, 200)) // better path
	best, _ := s.BestRoute(100, pfx("10.0.0.0/8"))
	if best.Attrs.PathLen() != 1 {
		t.Fatalf("replacement not applied: %v", best)
	}
	if len(changed) == 0 {
		t.Fatal("attribute change should be reported")
	}
}

func TestFlushPeerKeepsParticipant(t *testing.T) {
	s := newServer(t, 100, 200, 300)
	s.HandleUpdate(200, announce([]string{"10.0.0.0/8"}, 200, 900))
	s.HandleUpdate(300, announce([]string{"10.0.0.0/8"}, 300))
	s.HandleUpdate(300, announce([]string{"13.0.0.0/8"}, 300))

	changed := s.FlushPeer(300)
	if len(changed) != 2 {
		t.Fatalf("flushing a peer with two live routes changed %v", changed)
	}
	// 10/8 falls back to the 200 path; 13/8 disappears entirely.
	best, ok := s.BestRoute(100, pfx("10.0.0.0/8"))
	if !ok || best.PeerAS != 200 {
		t.Fatalf("best for 100 after flush: %v (ok=%v)", best, ok)
	}
	if _, ok := s.BestRoute(100, pfx("13.0.0.0/8")); ok {
		t.Fatal("13.0.0.0/8 survived its only announcer's flush")
	}

	// The participant stays registered: re-announcing works without
	// AddParticipant, exactly what a reconnecting session does.
	s.HandleUpdate(300, announce([]string{"13.0.0.0/8"}, 300))
	if _, ok := s.BestRoute(100, pfx("13.0.0.0/8")); !ok {
		t.Fatal("re-announcement after flush did not take")
	}

	// Flushing a peer with nothing to flush is a quiet no-op.
	if changed := s.FlushPeer(100); len(changed) != 0 {
		t.Fatalf("empty flush changed %v", changed)
	}
}

// fanout builds a server with n participants, none with callbacks.
func fanout(t *testing.T, n int) *Server {
	t.Helper()
	s := New()
	for i := 0; i < n; i++ {
		if err := s.AddParticipant(ParticipantConfig{AS: 100 + uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestApplyBatchMatchesSerial(t *testing.T) {
	// A multi-peer batch must leave the server in exactly the state a
	// serial HandleUpdate sequence produces, for every participant view.
	mkUpdates := func() []PeerUpdate {
		var batch []PeerUpdate
		for i := 0; i < 64; i++ {
			p := iputil.Addr(0x30_00_00_00|uint32(i)<<8).String() + "/24"
			from := 100 + uint32(i%5)
			batch = append(batch, PeerUpdate{From: from, Update: announce([]string{p}, from, 900+uint32(i%3))})
		}
		// Re-announce a third with different paths and withdraw every
		// sixth, so the batch exercises replace and remove on the same
		// prefixes it announced.
		for i := 0; i < 64; i += 3 {
			p := iputil.Addr(0x30_00_00_00|uint32(i)<<8).String() + "/24"
			from := 100 + uint32(i%5)
			batch = append(batch, PeerUpdate{From: from, Update: announce([]string{p}, from, 800)})
		}
		for i := 0; i < 64; i += 6 {
			p := iputil.Addr(0x30_00_00_00|uint32(i)<<8).String() + "/24"
			from := 100 + uint32(i%5)
			batch = append(batch, PeerUpdate{From: from, Update: withdraw(p)})
		}
		return batch
	}

	serial, batched := fanout(t, 5), fanout(t, 5)
	for _, pu := range mkUpdates() {
		serial.HandleUpdate(pu.From, pu.Update)
	}
	changed := batched.Apply(mkUpdates())

	for as := uint32(100); as < 105; as++ {
		want, got := serial.BestRoutes(as), batched.BestRoutes(as)
		if len(want) != len(got) {
			t.Fatalf("AS%d: serial Loc-RIB has %d prefixes, batched %d", as, len(want), len(got))
		}
		for p, wr := range want {
			gr, ok := got[p]
			if !ok {
				t.Fatalf("AS%d: batched view missing %s", as, p)
			}
			if wr.PeerAS != gr.PeerAS || wr.Attrs.String() != gr.Attrs.String() {
				t.Fatalf("AS%d %s: serial best %v, batched best %v", as, p, wr, gr)
			}
		}
	}
	if lw, lg := len(serial.Prefixes()), len(batched.Prefixes()); lw != lg {
		t.Fatalf("Adj-RIB-In size: serial %d, batched %d", lw, lg)
	}
	if serial.UpdatesProcessed() != batched.UpdatesProcessed() {
		t.Fatalf("updates processed: serial %d, batched %d",
			serial.UpdatesProcessed(), batched.UpdatesProcessed())
	}

	// The prefixes one Apply changed come back sorted, each once.
	for i := 1; i < len(changed); i++ {
		if changed[i-1].Compare(changed[i]) >= 0 {
			t.Fatalf("changed prefixes out of order at %d: %v then %v", i, changed[i-1], changed[i])
		}
	}
}

func TestApplyBatchOrderPerPrefixPeer(t *testing.T) {
	// Within a batch the last update for a (prefix, peer) pair wins.
	s := fanout(t, 3)
	p := "40.0.1.0/24"
	s.Apply([]PeerUpdate{
		{From: 100, Update: announce([]string{p}, 100, 900)},
		{From: 100, Update: announce([]string{p}, 100, 901)},
		{From: 100, Update: withdraw(p)},
		{From: 100, Update: announce([]string{p}, 100, 902)},
	})
	r, ok := s.BestRoute(101, pfx(p))
	if !ok {
		t.Fatalf("no best route for %s after batch", p)
	}
	if len(r.Attrs.ASPath) != 2 || r.Attrs.ASPath[1] != 902 {
		t.Fatalf("best path %v, want [100 902]", r.Attrs.ASPath)
	}

	s.Apply([]PeerUpdate{
		{From: 100, Update: announce([]string{p}, 100, 903)},
		{From: 100, Update: withdraw(p)},
	})
	if _, ok := s.BestRoute(101, pfx(p)); ok {
		t.Fatalf("route for %s survived trailing withdrawal", p)
	}
}
