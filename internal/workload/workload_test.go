package workload

import (
	"testing"
	"time"

	"sdx/internal/rs"
)

func TestNewIXPShape(t *testing.T) {
	x := NewIXP(DefaultTopology(100, 5000, 1))
	if len(x.Participants) != 100 || len(x.Prefixes) != 5000 {
		t.Fatalf("sizes: %d participants, %d prefixes", len(x.Participants), len(x.Prefixes))
	}
	// Skewed distribution: the single top announcer carries a large
	// share and the bottom 90% together carry a small one.
	top := x.TopAnnouncers()
	total := 0
	for _, p := range top {
		total += len(p.Prefixes)
	}
	if total < 5000 {
		t.Fatalf("only %d announcements for 5000 prefixes", total)
	}
	if frac := float64(len(top[0].Prefixes)) / float64(total); frac < 0.25 {
		t.Fatalf("top announcer has %.2f of announcements; want a skewed tail", frac)
	}
	bottom := 0
	for _, p := range top[len(top)/10:] {
		bottom += len(p.Prefixes)
	}
	if frac := float64(bottom) / float64(total); frac > 0.35 {
		t.Fatalf("bottom 90%% carries %.2f; want a heavy head", frac)
	}
	// Port IDs unique.
	seen := map[uint32]bool{}
	for _, p := range x.Participants {
		for _, port := range p.Ports {
			if seen[uint32(port.ID)] {
				t.Fatalf("duplicate port %d", port.ID)
			}
			seen[uint32(port.ID)] = true
		}
		if len(p.Ports) == 0 {
			t.Fatal("every synthesized participant needs at least one port")
		}
	}
}

func TestNewIXPDeterministic(t *testing.T) {
	a := NewIXP(DefaultTopology(50, 1000, 42))
	b := NewIXP(DefaultTopology(50, 1000, 42))
	for i := range a.Participants {
		if a.Participants[i].AS != b.Participants[i].AS ||
			len(a.Participants[i].Prefixes) != len(b.Participants[i].Prefixes) ||
			a.Participants[i].Category != b.Participants[i].Category {
			t.Fatal("same seed must give identical topologies")
		}
	}
}

func TestByCategoryOrdering(t *testing.T) {
	x := NewIXP(DefaultTopology(80, 2000, 3))
	for _, c := range []Category{Eyeball, Transit, Content} {
		list := x.ByCategory(c)
		for i := 1; i < len(list); i++ {
			if len(list[i-1].Prefixes) < len(list[i].Prefixes) {
				t.Fatalf("%v list not sorted by announcements", c)
			}
			if list[i].Category != c {
				t.Fatalf("wrong category in %v list", c)
			}
		}
	}
	if x.Participant(65000) == nil || x.Participant(1) != nil {
		t.Fatal("Participant lookup broken")
	}
}

func TestAssignPoliciesMix(t *testing.T) {
	x := NewIXP(DefaultTopology(100, 5000, 7))
	pols := AssignPolicies(x, DefaultPolicyMix(7))
	if len(pols) == 0 {
		t.Fatal("no policies assigned")
	}
	// Only a minority of participants get custom policies (§6.1: ~25%
	// across the three categories at most).
	if len(pols) > len(x.Participants)/2 {
		t.Fatalf("%d of %d participants have policies; expected a small subset",
			len(pols), len(x.Participants))
	}
	in, out := 0, 0
	for as, p := range pols {
		wp := x.Participant(as)
		if wp == nil {
			t.Fatalf("policy for unknown AS%d", as)
		}
		in += len(p.In)
		out += len(p.Out)
		for _, term := range p.Out {
			if term.Action.ToParticipant == 0 {
				t.Fatal("outbound term without target")
			}
			if x.Participant(term.Action.ToParticipant) == nil {
				t.Fatal("outbound term targets unknown participant")
			}
		}
		for _, term := range p.In {
			if term.Action.ToPort == 0 {
				t.Fatal("inbound term without port")
			}
			owns := false
			for _, port := range wp.Ports {
				if port.ID == term.Action.ToPort {
					owns = true
				}
			}
			if !owns {
				t.Fatal("inbound term uses foreign port")
			}
		}
	}
	if in == 0 || out == 0 {
		t.Fatalf("expected both inbound (%d) and outbound (%d) policies", in, out)
	}
}

func TestLoadAndInstall(t *testing.T) {
	x := NewIXP(DefaultTopology(20, 500, 11))
	ctrl, err := Load(x)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ctrl.RouteServer().Prefixes()); got != 500 {
		t.Fatalf("route server has %d prefixes, want 500", got)
	}
	pols := AssignPolicies(x, DefaultPolicyMix(11))
	if err := InstallPolicies(ctrl, pols); err != nil {
		t.Fatal(err)
	}
	rep := ctrl.Recompile()
	if rep.Groups == 0 || rep.Rules == 0 {
		t.Fatalf("compilation produced nothing: %+v", rep)
	}
	// Prefix groups must not exceed prefixes (sub-linearity sanity).
	if rep.Groups > 500 {
		t.Fatalf("groups = %d > prefixes", rep.Groups)
	}
}

func TestGenerateTraceShape(t *testing.T) {
	x := NewIXP(DefaultTopology(50, 5000, 13))
	tr := GenerateTrace(x, DefaultTrace(20000, 13))
	if len(tr.Events) != 20000 {
		t.Fatalf("generated %d events", len(tr.Events))
	}
	st := tr.Stats(len(x.Prefixes))
	// Table 1 shape: ~10-14% of prefixes updated.
	if st.UpdatedFraction < 0.05 || st.UpdatedFraction > 0.2 {
		t.Fatalf("updated fraction %.3f outside the Table 1 ballpark", st.UpdatedFraction)
	}
	// §4.3.2: 75% of bursts no more than 3 prefixes.
	if st.BurstP75 > 3 {
		t.Fatalf("P75 burst size = %d, want <= 3", st.BurstP75)
	}
	// Inter-arrival: median around a minute or more (§4.3.2 says half
	// of the gaps exceed one minute), P75 of bursts small.
	if st.InterArrivalP50 < 55*time.Second {
		t.Fatalf("median inter-arrival %v, want >= ~1m", st.InterArrivalP50)
	}
	if st.InterArrivalP25 < 100*time.Millisecond {
		t.Fatalf("P25 inter-arrival %v suspiciously small", st.InterArrivalP25)
	}
	// Events are time-ordered.
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].At < tr.Events[i-1].At {
			t.Fatal("events out of order")
		}
	}
	// Every event is attributable.
	for _, e := range tr.Events {
		if x.Participant(e.Peer) == nil {
			t.Fatalf("event from unknown peer %d", e.Peer)
		}
	}
}

func TestTraceReplayAgainstController(t *testing.T) {
	x := NewIXP(DefaultTopology(30, 1000, 17))
	ctrl, err := Load(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := InstallPolicies(ctrl, AssignPolicies(x, DefaultPolicyMix(17))); err != nil {
		t.Fatal(err)
	}
	ctrl.Recompile()

	tr := GenerateTrace(x, DefaultTrace(500, 17))
	additional := 0
	for _, e := range tr.Events {
		res := ctrl.ApplyBatch(rs.PeerUpdate{From: e.Peer, Update: e.Update})
		additional += res.AdditionalRules
	}
	if additional == 0 {
		t.Fatal("a 500-update trace should touch some policy prefixes")
	}
	rep := ctrl.Recompile()
	if ctrl.FastRules() != 0 {
		t.Fatal("recompile should clear fast rules")
	}
	if rep.Rules == 0 {
		t.Fatal("rules vanished after replay")
	}
}
